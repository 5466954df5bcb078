"""Transaction substrate: transactions, journal-based rollback, commit hooks, locks."""

from .errors import LockTimeoutError, TransactionAborted, TransactionError, TransactionStateError
from .locks import LockManager, ReadWriteLock
from .manager import TransactionHook, TransactionManager
from .transaction import Transaction, TransactionState

__all__ = [
    "LockManager",
    "LockTimeoutError",
    "ReadWriteLock",
    "Transaction",
    "TransactionAborted",
    "TransactionError",
    "TransactionHook",
    "TransactionManager",
    "TransactionState",
    "TransactionStateError",
]
