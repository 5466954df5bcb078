"""Recursive-descent parser for the Cypher subset.

The grammar follows openCypher where the two overlap; constructs outside
the supported subset raise
:class:`~repro.cypher.errors.UnsupportedFeatureError` so that callers never
get silently wrong results.

The entry points are :func:`parse_query` (a full clause pipeline) and
:func:`parse_expression` (a standalone expression, used by the trigger
engine for WHEN conditions that are plain predicates).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .ast import (
    BinaryOp,
    CallClause,
    CaseExpression,
    Clause,
    CountStar,
    CreateClause,
    DeleteClause,
    ExistsPattern,
    Expression,
    ForeachClause,
    FunctionCall,
    IsNull,
    Literal,
    ListComprehension,
    ListIndex,
    ListLiteral,
    LabelPredicate,
    MapLiteral,
    MatchClause,
    MergeClause,
    NodePattern,
    Parameter,
    PathPattern,
    ProjectionItem,
    PropertyAccess,
    Query,
    RelationshipPattern,
    RemoveClause,
    RemoveLabelsItem,
    RemovePropertyItem,
    ReturnClause,
    SetClause,
    SetFromMapItem,
    SetLabelsItem,
    SetPropertyItem,
    SortItem,
    UnaryOp,
    UnwindClause,
    Variable,
    WithClause,
)
from .errors import CypherSyntaxError, UnsupportedFeatureError
from .lexer import Token, TokenType, tokenize


class Parser:
    """Token-stream parser producing :class:`~repro.cypher.ast.Query` trees."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.type != TokenType.EOF:
            self.pos += 1
        return token

    def at_keyword(self, *names: str) -> bool:
        return self.current.is_keyword(*names)

    def accept_keyword(self, *names: str) -> Optional[Token]:
        if self.at_keyword(*names):
            return self.advance()
        return None

    def expect_keyword(self, *names: str) -> Token:
        if not self.at_keyword(*names):
            raise CypherSyntaxError(
                f"expected {' or '.join(names)}, found {self.current.value!r}",
                self.current.position,
                self.current.line,
            )
        return self.advance()

    def at_punct(self, value: str) -> bool:
        token = self.current
        return token.type in (TokenType.PUNCTUATION, TokenType.OPERATOR) and token.value == value

    def accept_punct(self, value: str) -> bool:
        if self.at_punct(value):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        if not self.at_punct(value):
            raise CypherSyntaxError(
                f"expected {value!r}, found {self.current.value!r}",
                self.current.position,
                self.current.line,
            )
        return self.advance()

    def expect_identifier(self) -> str:
        token = self.current
        if token.type == TokenType.IDENTIFIER:
            self.advance()
            return token.value
        # Allow non-reserved keywords to double as identifiers (e.g. a
        # property named ``count`` or a type named ``In``), spelled as written.
        if token.type == TokenType.KEYWORD:
            self.advance()
            return token.text
        raise CypherSyntaxError(
            f"expected identifier, found {token.value!r}", token.position, token.line
        )

    # ------------------------------------------------------------------
    # queries and clauses
    # ------------------------------------------------------------------

    def parse_query(self) -> Query:
        """Parse a complete query (sequence of clauses up to EOF)."""
        clauses: list[Clause] = []
        while self.current.type != TokenType.EOF:
            if self.accept_punct(";"):
                continue
            clauses.append(self.parse_clause())
        if not clauses:
            raise CypherSyntaxError("empty query")
        return Query(clauses=tuple(clauses))

    def parse_clause(self) -> Clause:
        """Parse a single clause."""
        token = self.current
        if token.is_keyword("MATCH") or token.is_keyword("OPTIONAL"):
            return self._parse_match()
        if token.is_keyword("UNWIND"):
            return self._parse_unwind()
        if token.is_keyword("WITH"):
            return self._parse_with()
        if token.is_keyword("RETURN"):
            return self._parse_return()
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("MERGE"):
            return self._parse_merge()
        if token.is_keyword("SET"):
            return self._parse_set()
        if token.is_keyword("REMOVE"):
            return self._parse_remove()
        if token.is_keyword("DELETE") or token.is_keyword("DETACH"):
            return self._parse_delete()
        if token.is_keyword("FOREACH"):
            return self._parse_foreach()
        if token.is_keyword("CALL"):
            return self._parse_call()
        if token.is_keyword("UNION"):
            raise UnsupportedFeatureError("UNION queries are not supported by this subset")
        raise CypherSyntaxError(
            f"unexpected token {token.value!r} at start of clause", token.position, token.line
        )

    def _parse_match(self) -> MatchClause:
        optional = bool(self.accept_keyword("OPTIONAL"))
        self.expect_keyword("MATCH")
        patterns = self._parse_pattern_list()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return MatchClause(patterns=tuple(patterns), where=where, optional=optional)

    def _parse_unwind(self) -> UnwindClause:
        self.expect_keyword("UNWIND")
        expression = self.parse_expression()
        self.expect_keyword("AS")
        variable = self.expect_identifier()
        return UnwindClause(expression=expression, variable=variable)

    def _parse_projection(self) -> tuple[tuple[ProjectionItem, ...], bool, bool]:
        """Parse ``[DISTINCT] item, item…`` returning (items, distinct, wildcard)."""
        distinct = bool(self.accept_keyword("DISTINCT"))
        include_wildcard = False
        items: list[ProjectionItem] = []
        while True:
            if self.at_punct("*"):
                self.advance()
                include_wildcard = True
            else:
                expression = self.parse_expression()
                alias = None
                if self.accept_keyword("AS"):
                    alias = self.expect_identifier()
                items.append(ProjectionItem(expression=expression, alias=alias))
            if not self.accept_punct(","):
                break
        return tuple(items), distinct, include_wildcard

    def _parse_order_skip_limit(self):
        order_by: list[SortItem] = []
        skip = None
        limit = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expression = self.parse_expression()
                descending = False
                if self.accept_keyword("DESC", "DESCENDING"):
                    descending = True
                elif self.accept_keyword("ASC", "ASCENDING"):
                    descending = False
                order_by.append(SortItem(expression=expression, descending=descending))
                if not self.accept_punct(","):
                    break
        if self.accept_keyword("SKIP"):
            skip = self.parse_expression()
        if self.accept_keyword("LIMIT"):
            limit = self.parse_expression()
        return tuple(order_by), skip, limit

    def _parse_with(self) -> WithClause:
        self.expect_keyword("WITH")
        items, distinct, wildcard = self._parse_projection()
        order_by, skip, limit = self._parse_order_skip_limit()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return WithClause(
            items=items,
            distinct=distinct,
            order_by=order_by,
            skip=skip,
            limit=limit,
            where=where,
            include_wildcard=wildcard,
        )

    def _parse_return(self) -> ReturnClause:
        self.expect_keyword("RETURN")
        items, distinct, wildcard = self._parse_projection()
        order_by, skip, limit = self._parse_order_skip_limit()
        return ReturnClause(
            items=items,
            distinct=distinct,
            order_by=order_by,
            skip=skip,
            limit=limit,
            include_wildcard=wildcard,
        )

    def _parse_create(self) -> CreateClause:
        self.expect_keyword("CREATE")
        patterns = self._parse_pattern_list()
        return CreateClause(patterns=tuple(patterns))

    def _parse_merge(self) -> MergeClause:
        self.expect_keyword("MERGE")
        pattern = self._parse_path_pattern()
        if self.at_keyword("ON"):
            raise UnsupportedFeatureError(
                "MERGE … ON CREATE/ON MATCH is not supported by this subset"
            )
        return MergeClause(pattern=pattern)

    def _parse_set(self) -> SetClause:
        self.expect_keyword("SET")
        items: list = []
        while True:
            subject = self.expect_identifier()
            if self.accept_punct("."):
                key = self.expect_identifier()
                self.expect_punct("=")
                value = self.parse_expression()
                items.append(SetPropertyItem(subject=subject, key=key, value=value))
            elif self.at_punct(":"):
                labels = []
                while self.accept_punct(":"):
                    labels.append(self.expect_identifier())
                items.append(SetLabelsItem(subject=subject, labels=tuple(labels)))
            elif self.at_punct("+="):
                self.advance()
                value = self.parse_expression()
                items.append(SetFromMapItem(subject=subject, value=value, replace=False))
            elif self.at_punct("="):
                self.advance()
                value = self.parse_expression()
                items.append(SetFromMapItem(subject=subject, value=value, replace=True))
            else:
                raise CypherSyntaxError(
                    f"malformed SET item near {self.current.value!r}",
                    self.current.position,
                    self.current.line,
                )
            if not self.accept_punct(","):
                break
        return SetClause(items=tuple(items))

    def _parse_remove(self) -> RemoveClause:
        self.expect_keyword("REMOVE")
        items: list = []
        while True:
            subject = self.expect_identifier()
            if self.accept_punct("."):
                key = self.expect_identifier()
                items.append(RemovePropertyItem(subject=subject, key=key))
            elif self.at_punct(":"):
                labels = []
                while self.accept_punct(":"):
                    labels.append(self.expect_identifier())
                items.append(RemoveLabelsItem(subject=subject, labels=tuple(labels)))
            else:
                raise CypherSyntaxError(
                    f"malformed REMOVE item near {self.current.value!r}",
                    self.current.position,
                    self.current.line,
                )
            if not self.accept_punct(","):
                break
        return RemoveClause(items=tuple(items))

    def _parse_delete(self) -> DeleteClause:
        detach = bool(self.accept_keyword("DETACH"))
        self.expect_keyword("DELETE")
        expressions = [self.parse_expression()]
        while self.accept_punct(","):
            expressions.append(self.parse_expression())
        return DeleteClause(expressions=tuple(expressions), detach=detach)

    def _parse_foreach(self) -> ForeachClause:
        self.expect_keyword("FOREACH")
        self.expect_punct("(")
        variable = self.expect_identifier()
        self.expect_keyword("IN")
        source = self.parse_expression()
        self.expect_punct("|")
        body: list[Clause] = []
        while not self.at_punct(")"):
            body.append(self.parse_clause())
        self.expect_punct(")")
        if not body:
            raise CypherSyntaxError("FOREACH requires at least one update clause")
        return ForeachClause(variable=variable, source=source, body=tuple(body))

    def _parse_call(self) -> CallClause:
        self.expect_keyword("CALL")
        name_parts = [self.expect_identifier()]
        while self.accept_punct("."):
            name_parts.append(self.expect_identifier())
        procedure = ".".join(name_parts)
        arguments: list[Expression] = []
        self.expect_punct("(")
        if not self.at_punct(")"):
            arguments.append(self.parse_expression())
            while self.accept_punct(","):
                arguments.append(self.parse_expression())
        self.expect_punct(")")
        yield_items: list[tuple[str, str]] = []
        if self.accept_keyword("YIELD"):
            while True:
                name = self.expect_identifier()
                alias = name
                if self.accept_keyword("AS"):
                    alias = self.expect_identifier()
                yield_items.append((name, alias))
                if not self.accept_punct(","):
                    break
        return CallClause(
            procedure=procedure, arguments=tuple(arguments), yield_items=tuple(yield_items)
        )

    # ------------------------------------------------------------------
    # patterns
    # ------------------------------------------------------------------

    def _parse_pattern_list(self) -> list[PathPattern]:
        patterns = [self._parse_path_pattern()]
        while self.accept_punct(","):
            patterns.append(self._parse_path_pattern())
        return patterns

    def _parse_path_pattern(self) -> PathPattern:
        variable = None
        # Named path: ``p = (a)-[r]->(b)``
        if (
            self.current.type == TokenType.IDENTIFIER
            and self.peek().type == TokenType.OPERATOR
            and self.peek().value == "="
        ):
            variable = self.expect_identifier()
            self.expect_punct("=")
        if (
            self.current.type == TokenType.IDENTIFIER
            and self.current.value.lower() in {"shortestpath", "allshortestpaths"}
            and self.peek().value == "("
        ):
            return self._parse_shortest_path(variable)
        elements: list = [self._parse_node_pattern()]
        while self.at_punct("-") or self.at_punct("<"):
            elements.append(self._parse_relationship_pattern())
            elements.append(self._parse_node_pattern())
        return PathPattern(elements=tuple(elements), variable=variable)

    def _parse_shortest_path(self, variable: Optional[str]) -> PathPattern:
        token = self.advance()
        if token.value.lower() == "allshortestpaths":
            raise UnsupportedFeatureError(
                f"{token.value!r} (line {token.line}, offset {token.position}) is not "
                "supported; shortestPath returns the deterministic single winner"
            )
        self.expect_punct("(")
        inner = self.current
        elements: list = [self._parse_node_pattern()]
        while self.at_punct("-") or self.at_punct("<"):
            elements.append(self._parse_relationship_pattern())
            elements.append(self._parse_node_pattern())
        self.expect_punct(")")
        if len(elements) != 3:
            raise CypherSyntaxError(
                "shortestPath requires a single-relationship pattern "
                "(a)-[:TYPE*..k]-(b)",
                inner.position,
                inner.line,
            )
        rel = elements[1]
        if not rel.is_variable_length:
            # Neo4j also rejects fixed single hops inside shortestPath;
            # treat ``-[:R]-`` as the equivalent ``-[:R*1..1]-``.
            rel = replace(rel, min_hops=1, max_hops=1)
            elements[1] = rel
        return PathPattern(
            elements=tuple(elements), variable=variable, shortest="shortestPath"
        )

    def _parse_node_pattern(self) -> NodePattern:
        self.expect_punct("(")
        variable = None
        labels: list[str] = []
        properties: tuple[tuple[str, Expression], ...] = ()
        if self.current.type == TokenType.IDENTIFIER or (
            self.current.type == TokenType.KEYWORD and not self.at_punct(")")
            and self.current.value not in {"WHERE"}
        ):
            if not self.at_punct(":") and not self.at_punct(")") and not self.at_punct("{"):
                variable = self.expect_identifier()
        while self.accept_punct(":"):
            labels.append(self._parse_label_name())
        if self.at_punct("{"):
            properties = self._parse_map_entries()
        self.expect_punct(")")
        return NodePattern(variable=variable, labels=tuple(labels), properties=properties)

    def _parse_label_name(self) -> str:
        token = self.current
        if token.type == TokenType.STRING:
            self.advance()
            return token.value
        return self.expect_identifier()

    def _parse_relationship_pattern(self) -> RelationshipPattern:
        direction = "both"
        pointing_left = False
        if self.at_punct("<"):
            self.advance()
            pointing_left = True
        self.expect_punct("-")
        variable = None
        types: list[str] = []
        properties: tuple[tuple[str, Expression], ...] = ()
        min_hops = None
        max_hops = None
        if self.accept_punct("["):
            if self.current.type == TokenType.IDENTIFIER and not self.at_punct(":"):
                variable = self.expect_identifier()
            elif self.current.type == TokenType.KEYWORD and self.peek().value in {":", "]", "*"}:
                variable = self.expect_identifier()
            while self.accept_punct(":"):
                types.append(self._parse_label_name())
                while self.accept_punct("|"):
                    self.accept_punct(":")
                    types.append(self._parse_label_name())
            if self.accept_punct("*"):
                min_hops, max_hops = self._parse_hop_range()
            if self.at_punct("{"):
                properties = self._parse_map_entries()
            self.expect_punct("]")
        self.expect_punct("-")
        pointing_right = False
        if self.at_punct(">"):
            arrow = self.advance()
            pointing_right = True
            if pointing_left:
                raise CypherSyntaxError(
                    "relationship cannot point in both directions",
                    arrow.position,
                    arrow.line,
                )
        if pointing_left:
            direction = "in"
        elif pointing_right:
            direction = "out"
        return RelationshipPattern(
            variable=variable,
            types=tuple(types),
            properties=properties,
            direction=direction,
            min_hops=min_hops,
            max_hops=max_hops,
        )

    def _parse_hop_range(self) -> tuple[int, Optional[int]]:
        """Parse the ``*``, ``*n``, ``*n..m``, ``*..m`` hop bounds."""
        min_hops = 1
        max_hops: Optional[int] = None
        if self.current.type == TokenType.INTEGER:
            min_hops = int(self.advance().value)
            max_hops = min_hops
        if self.at_punct(".."):
            self.advance()
            max_hops = None
            if self.current.type == TokenType.INTEGER:
                max_hops = int(self.advance().value)
        return min_hops, max_hops

    def _parse_map_entries(self) -> tuple[tuple[str, Expression], ...]:
        self.expect_punct("{")
        entries: list[tuple[str, Expression]] = []
        if not self.at_punct("}"):
            while True:
                key = self._parse_map_key()
                self.expect_punct(":")
                entries.append((key, self.parse_expression()))
                if not self.accept_punct(","):
                    break
        self.expect_punct("}")
        return tuple(entries)

    def _parse_map_key(self) -> str:
        token = self.current
        if token.type == TokenType.STRING:
            self.advance()
            return token.value
        return self.expect_identifier()

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------

    def parse_expression(self) -> Expression:
        """Parse an expression (entry point also used standalone)."""
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_xor()
        while self.at_keyword("OR"):
            self.advance()
            left = BinaryOp(op="OR", left=left, right=self._parse_xor())
        return left

    def _parse_xor(self) -> Expression:
        left = self._parse_and()
        while self.at_keyword("XOR"):
            self.advance()
            left = BinaryOp(op="XOR", left=left, right=self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.at_keyword("AND"):
            self.advance()
            left = BinaryOp(op="AND", left=left, right=self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.accept_keyword("NOT"):
            return UnaryOp(op="NOT", operand=self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        while True:
            token = self.current
            if token.type == TokenType.OPERATOR and token.value in ("=", "<>", "!=", "<", ">", "<=", ">="):
                op = "<>" if token.value == "!=" else token.value
                self.advance()
                left = BinaryOp(op=op, left=left, right=self._parse_additive())
            elif token.is_keyword("IN"):
                self.advance()
                left = BinaryOp(op="IN", left=left, right=self._parse_additive())
            elif token.is_keyword("CONTAINS"):
                self.advance()
                left = BinaryOp(op="CONTAINS", left=left, right=self._parse_additive())
            elif token.is_keyword("STARTS"):
                self.advance()
                self.expect_keyword("WITH")
                left = BinaryOp(op="STARTS WITH", left=left, right=self._parse_additive())
            elif token.is_keyword("ENDS"):
                self.advance()
                self.expect_keyword("WITH")
                left = BinaryOp(op="ENDS WITH", left=left, right=self._parse_additive())
            elif token.is_keyword("IS"):
                self.advance()
                negated = bool(self.accept_keyword("NOT"))
                self.expect_keyword("NULL")
                left = IsNull(operand=left, negated=negated)
            else:
                return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self.current.type == TokenType.OPERATOR and self.current.value in ("+", "-"):
            op = self.advance().value
            left = BinaryOp(op=op, left=left, right=self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_power()
        while self.current.type == TokenType.OPERATOR and self.current.value in ("*", "/", "%"):
            op = self.advance().value
            left = BinaryOp(op=op, left=left, right=self._parse_power())
        return left

    def _parse_power(self) -> Expression:
        left = self._parse_unary()
        while self.current.type == TokenType.OPERATOR and self.current.value == "^":
            self.advance()
            left = BinaryOp(op="^", left=left, right=self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        if self.current.type == TokenType.OPERATOR and self.current.value in ("-", "+"):
            op = self.advance().value
            operand = self._parse_unary()
            if op == "+":
                return operand
            return UnaryOp(op="-", operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expression:
        expression = self._parse_atom()
        while True:
            if self.at_punct(".") and self.peek().type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                self.advance()
                key = self.expect_identifier()
                expression = PropertyAccess(subject=expression, key=key)
            elif self.at_punct(":"):
                labels = []
                while self.accept_punct(":"):
                    labels.append(self._parse_label_name())
                expression = LabelPredicate(subject=expression, labels=tuple(labels))
            elif self.at_punct("["):
                self.advance()
                index = self.parse_expression()
                self.expect_punct("]")
                expression = ListIndex(subject=expression, index=index)
            else:
                return expression

    def _parse_atom(self) -> Expression:
        token = self.current

        if token.type == TokenType.INTEGER:
            self.advance()
            return Literal(int(token.value))
        if token.type == TokenType.FLOAT:
            self.advance()
            return Literal(float(token.value))
        if token.type == TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.type == TokenType.PARAMETER:
            self.advance()
            return Parameter(token.value)
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.is_keyword("NULL"):
            self.advance()
            return Literal(None)
        if token.is_keyword("COUNT"):
            return self._parse_count()
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("EXISTS"):
            return self._parse_exists()
        if token.is_keyword("ALL", "NOT"):
            # ALL is only a keyword in FOR ALL / YIELD contexts; as an atom it
            # behaves like an identifier-based function (e.g. ``all(...)``).
            return self._parse_identifier_atom()
        if self.at_punct("["):
            return self._parse_list_or_comprehension()
        if self.at_punct("{"):
            entries = self._parse_map_entries()
            return MapLiteral(entries=entries)
        if self.at_punct("("):
            self.advance()
            inner = self.parse_expression()
            self.expect_punct(")")
            return inner
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            return self._parse_identifier_atom()
        raise CypherSyntaxError(
            f"unexpected token {token.value!r} in expression", token.position, token.line
        )

    def _parse_identifier_atom(self) -> Expression:
        name = self.expect_identifier()
        if self.at_punct("("):
            self.advance()
            distinct = bool(self.accept_keyword("DISTINCT"))
            args: list[Expression] = []
            if not self.at_punct(")"):
                args.append(self.parse_expression())
                while self.accept_punct(","):
                    args.append(self.parse_expression())
            self.expect_punct(")")
            return FunctionCall(name=name.lower(), args=tuple(args), distinct=distinct)
        return Variable(name)

    def _parse_count(self) -> Expression:
        self.expect_keyword("COUNT")
        self.expect_punct("(")
        if self.at_punct("*"):
            self.advance()
            self.expect_punct(")")
            return CountStar()
        distinct = bool(self.accept_keyword("DISTINCT"))
        argument = self.parse_expression()
        self.expect_punct(")")
        return FunctionCall(name="count", args=(argument,), distinct=distinct)

    def _parse_case(self) -> Expression:
        self.expect_keyword("CASE")
        subject: Optional[Expression] = None
        if not self.at_keyword("WHEN"):
            subject = self.parse_expression()
        whens: list[tuple[Expression, Expression]] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            if subject is not None:
                condition = BinaryOp(op="=", left=subject, right=condition)
            self.expect_keyword("THEN")
            value = self.parse_expression()
            whens.append((condition, value))
        default = None
        if self.accept_keyword("ELSE"):
            default = self.parse_expression()
        self.expect_keyword("END")
        if not whens:
            raise CypherSyntaxError("CASE requires at least one WHEN branch")
        return CaseExpression(whens=tuple(whens), default=default)

    def _parse_exists(self) -> Expression:
        self.expect_keyword("EXISTS")
        if self.at_punct("{"):
            self.advance()
            where = None
            patterns: list[PathPattern] = []
            if self.accept_keyword("MATCH"):
                patterns = self._parse_pattern_list()
                if self.accept_keyword("WHERE"):
                    where = self.parse_expression()
            else:
                patterns = self._parse_pattern_list()
                if self.accept_keyword("WHERE"):
                    where = self.parse_expression()
            self.expect_punct("}")
            return ExistsPattern(patterns=tuple(patterns), where=where)
        if self.at_punct("("):
            # Either ``EXISTS (pattern)`` or ``exists(expr)``; try the pattern
            # first and fall back to the property-existence function.
            saved = self.pos
            try:
                pattern = self._parse_path_pattern()
                return ExistsPattern(patterns=(pattern,), where=None)
            except CypherSyntaxError:
                self.pos = saved
            self.expect_punct("(")
            argument = self.parse_expression()
            self.expect_punct(")")
            return FunctionCall(name="exists", args=(argument,))
        raise CypherSyntaxError("EXISTS must be followed by a pattern or block")

    def _parse_list_or_comprehension(self) -> Expression:
        self.expect_punct("[")
        if self.at_punct("]"):
            self.advance()
            return ListLiteral(items=())
        # Detect a list comprehension: ``[x IN list … ]``.
        if (
            self.current.type == TokenType.IDENTIFIER
            and self.peek().is_keyword("IN")
        ):
            variable = self.expect_identifier()
            self.expect_keyword("IN")
            source = self.parse_expression()
            where = None
            projection = None
            if self.accept_keyword("WHERE"):
                where = self.parse_expression()
            if self.accept_punct("|"):
                projection = self.parse_expression()
            self.expect_punct("]")
            return ListComprehension(
                variable=variable, source=source, where=where, projection=projection
            )
        items = [self.parse_expression()]
        while self.accept_punct(","):
            items.append(self.parse_expression())
        self.expect_punct("]")
        return ListLiteral(items=tuple(items))


def parse_query(text: str) -> Query:
    """Parse ``text`` into a :class:`~repro.cypher.ast.Query`."""
    return Parser(text).parse_query()


def parse_expression(text: str) -> Expression:
    """Parse a standalone expression (must consume the entire input)."""
    parser = Parser(text)
    expression = parser.parse_expression()
    if parser.current.type != TokenType.EOF:
        raise CypherSyntaxError(
            f"unexpected trailing input near {parser.current.value!r}",
            parser.current.position,
            parser.current.line,
        )
    return expression
