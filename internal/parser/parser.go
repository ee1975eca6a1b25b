// Package parser implements a scanner and recursive-descent parser for the
// Datalog text syntax used throughout this module:
//
//	% comment                  (also: // comment)
//	sg(X, Y) :- flat(X, Y).
//	sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
//	flat(a, b).                % a fact: all-constant head, empty body
//	cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, cnx(D1,DT1,D,AT).
//
// Source text is UTF-8. An identifier is a letter or '_' followed by
// letters, digits, '_' and '-'. Identifiers starting with an upper-case
// letter or '_' are variables; other identifiers, quoted strings, and
// integers are constants. The comparison built-ins <, <=, >, >=, =, != are
// recognized in rule bodies.
//
// Ground facts in the form DumpFacts and FormatFacts write take a fast
// path. A statement of the shape
//
//	fact  = name [ "(" [ const { "," const } ] ")" ] "."
//	name  = a-z { a-z | A-Z | 0-9 | "_" | "-" }
//	const = name | [ "-" ] 0-9 { 0-9 } | "'" { any byte but "'" and newline } "'"
//
// with only spaces, tabs, CRs and newlines between its tokens is scanned
// straight from the source, whole, before any of its constants is
// looked up; its arguments go straight onto its predicate's column (see
// Column), so a fact costs its symbols and nothing else. Anything else
// — a variable, ":-", a comment or a non-ASCII byte outside quotes, a
// missing "." — goes through the general parser, which yields the same
// facts, symbols and errors.
package parser

import (
	"fmt"
	"iter"
	"strings"
	"unicode"
	"unicode/utf8"

	"chainlog/internal/ast"
	"chainlog/internal/symtab"
)

// Fact is a parsed ground fact destined for the extensional database.
type Fact struct {
	Pred string
	Args []symtab.Sym
}

// Column holds the facts of one predicate in text order: fact i's
// arguments are Args[i*Arity : (i+1)*Arity].
type Column struct {
	Pred  string
	Arity int
	Count int // the number of facts, duplicates included
	Args  []symtab.Sym
}

// Fact returns the arguments of fact i, aliasing the column.
func (c *Column) Fact(i int) []symtab.Sym {
	return c.Args[i*c.Arity : (i+1)*c.Arity : (i+1)*c.Arity]
}

// Result holds a parsed program: the intensional rules and the extensional
// facts, separated as the paper separates them. The facts are kept as one
// Column per predicate, in the order the text first names the predicates.
type Result struct {
	Program *ast.Program
	Columns []Column
	fresh   []string // the names of the local ids -1, -2, ... (ParseDeferred)
}

// Facts yields every fact, with its index in that order: a predicate's
// facts after those of the predicates the text names before it, each in
// text order. A fact's Args alias its column.
func (r *Result) Facts(yield func(int, Fact) bool) {
	i := 0
	for k := range r.Columns {
		c := &r.Columns[k]
		for j := range c.Count {
			if !yield(i, Fact{Pred: c.Pred, Args: c.Fact(j)}) {
				return
			}
			i++
		}
	}
}

// Parse parses a full program text. Constants are interned into st in
// the order the text first names them, once it has all parsed. Every
// fact of a predicate must have the same number of arguments.
func Parse(src string, st *symtab.Table) (*Result, error) {
	r, err := ParseDeferred(src, st)
	if err == nil {
		r.Intern(st)
	}
	return r, err
}

// ParseDeferred is Parse for a load that may yet be refused: it interns
// nothing. A constant st lacks stands as a local id until Intern: -i for
// the i-th such constant the text names. Its name stays a substring of
// src; the table copies what it interns, so nothing it keeps pins src.
func ParseDeferred(src string, st *symtab.Table) (*Result, error) {
	return parse(src, st, true)
}

// Intern interns the constants a ParseDeferred left to it, in the order
// the text first named them — the symbols Parse gives them — with one
// InternAll, which copies them, and puts their symbols in place of their
// local ids in the facts and rules.
func (r *Result) Intern(st *symtab.Table) {
	if len(r.fresh) == 0 {
		return
	}
	syms := st.InternAll(r.fresh)
	for _, c := range r.Columns {
		for i, s := range c.Args {
			if s < 0 {
				c.Args[i] = syms[-s-1]
			}
		}
	}
	for _, rule := range r.Program.Rules {
		for _, l := range append([]ast.Literal{rule.Head}, rule.Body...) {
			fixTerms(l.Args, syms)
		}
	}
}

// fixTerms puts syms[i] in place of the local id -(i+1) in args; a
// variable's or a hole's Const is 0 and stays.
func fixTerms(args []ast.Term, syms []symtab.Sym) {
	for i, a := range args {
		if a.Const < 0 {
			args[i].Const = syms[-a.Const-1]
		}
	}
}

// parse is ParseDeferred; with fast false every statement goes through
// parseRule, which is the oracle the fast path is tested against.
func parse(src string, st *symtab.Table, fast bool) (*Result, error) {
	p := &parser{lex: newLexer(src), st: st, fresh: map[string]symtab.Sym{}, kept: map[string]string{}}
	res := &Result{Program: &ast.Program{}}
	var (
		col   = map[string]int{} // the index of each fact predicate's column
		last  = -1               // the column of the last fact
		stmts = strings.Count(src, ".")
	)
	// addFact counts a fact of pred with arity arguments onto its column,
	// whose index it returns for the caller to append the arguments to.
	addFact := func(pred string, arity, line int) (int, error) {
		// Consecutive facts mostly share their predicate: check against
		// the last one without the map.
		if last < 0 || pred != res.Columns[last].Pred {
			k, seen := col[pred]
			if !seen {
				k = len(res.Columns)
				res.Columns = append(res.Columns, Column{Pred: p.keep(pred), Arity: arity})
				col[res.Columns[k].Pred] = k
			}
			last = k
		}
		c := &res.Columns[last]
		if arity != c.Arity {
			return 0, fmt.Errorf("line %d: fact %s has %d argument(s), an earlier fact of %s has %d", line, pred, arity, pred, c.Arity)
		}
		if len(c.Args)+arity > cap(c.Args) {
			// Every statement ends in a '.', so those left bound the
			// column's growth: it doubles, but not past them.
			c.Args = append(make([]symtab.Sym, 0, min(max(2*cap(c.Args), 64*arity), len(c.Args)+arity*(stmts+1))), c.Args...)
		}
		c.Count++
		return last, nil
	}
	for {
		if fast && !p.hasTok {
			if pred, line, ok := p.lex.scanFact(); ok {
				stmts--
				k, err := addFact(pred, len(p.lex.consts), line)
				if err != nil {
					return nil, err
				}
				c := &res.Columns[k]
				for _, name := range p.lex.consts {
					c.Args = append(c.Args, p.sym(name))
				}
				continue
			}
		}
		tok := p.peek()
		if p.err != nil {
			return nil, p.err
		}
		if tok.kind == tokEOF {
			break
		}
		rule, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		stmts--
		if len(rule.Body) == 0 && rule.Head.IsGround() {
			k, err := addFact(rule.Head.Pred, len(rule.Head.Args), tok.line)
			if err != nil {
				return nil, err
			}
			c := &res.Columns[k]
			for _, a := range rule.Head.Args {
				c.Args = append(c.Args, a.Const)
			}
			continue
		}
		// Empty-body rules with variables are kept as rules: the paper's
		// reflexive-closure programs contain the identity rule p(X,X) :- .
		res.Program.Rules = append(res.Program.Rules, rule)
	}
	// Base/derived disjointness (Section 2 assumption).
	derived := res.Program.DerivedSet()
	for _, c := range res.Columns {
		if derived[c.Pred] {
			return nil, fmt.Errorf("predicate %s appears both as a fact and as a rule head", c.Pred)
		}
	}
	res.fresh = p.freshNames
	return res, nil
}

// ParseQuery parses a query literal such as "sg(john, Y)" with an optional
// trailing '?' or '.'.
func ParseQuery(src string, st *symtab.Table) (ast.Query, error) {
	return (&parser{lex: newLexer(src), st: st, fresh: map[string]symtab.Sym{}}).parseQuery()
}

// ParseQueryTemplate parses a parameterized query literal in which '?'
// placeholders stand for bound constants supplied later, e.g.
// "sg(?, Y)" or "cnx(?, ?, D, AT)". Placeholders parse to hole terms
// (ast.Term zero value); DB.Prepare binds them per Run call.
func ParseQueryTemplate(src string, st *symtab.Table) (ast.Query, error) {
	return (&parser{lex: newLexer(src), st: st, fresh: map[string]symtab.Sym{}, allowHoles: true}).parseQuery()
}

// ParseQueryNames parses a query literal like ParseQuery but interns
// nothing: each constant becomes a hole, and its name is returned in hole
// order — the literal as a template and its parameters, for a reader that
// must not grow the symbol table. A '?' placeholder is an error, as in
// ParseQuery.
func ParseQueryNames(src string) (ast.Query, []string, error) {
	p := &parser{lex: newLexer(src)}
	q, err := p.parseQuery()
	return q, p.names, err
}

func (p *parser) parseQuery() (ast.Query, error) {
	lit, err := p.parseLiteral()
	if err != nil {
		return ast.Query{}, err
	}
	if lit.IsBuiltin() {
		return ast.Query{}, fmt.Errorf("query must be an ordinary literal")
	}
	tok := p.peek()
	if tok.kind == tokQuestion || tok.kind == tokDot {
		p.next()
	}
	if t := p.peek(); t.kind != tokEOF {
		return ast.Query{}, fmt.Errorf("line %d: unexpected %q after query", p.lex.line, t.text)
	}
	if len(p.freshNames) > 0 { // the query parsed: intern its constants
		fixTerms(lit.Args, p.st.InternAll(p.freshNames))
	}
	return ast.Query{Literal: lit}, nil
}

// MustParse is Parse for tests and examples with known-good sources.
func MustParse(src string, st *symtab.Table) *Result {
	r, err := Parse(src, st)
	if err != nil {
		panic(err)
	}
	return r
}

// MustParseQuery is ParseQuery for known-good sources.
func MustParseQuery(src string, st *symtab.Table) ast.Query {
	q, err := ParseQuery(src, st)
	if err != nil {
		panic(err)
	}
	return q
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokVar
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokIf // :-
	tokOp // comparison
	tokQuestion
)

type token struct {
	kind tokKind
	text string
	op   ast.BuiltinOp
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
	// consts holds the constants of the fact scanFact last took.
	consts []string
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// skipSpace skips whitespace and comments, counting lines.
func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '%':
			l.skipLine()
		case c == '/' && l.peekByte(1) == '/':
			l.skipLine()
		default:
			return
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos == len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	c := l.src[l.pos]
	start := l.pos
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", line: l.line}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", line: l.line}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", line: l.line}, nil
	case c == '.':
		l.pos++
		return token{kind: tokDot, text: ".", line: l.line}, nil
	case c == '?':
		l.pos++
		return token{kind: tokQuestion, text: "?", line: l.line}, nil
	case c == ':':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			l.pos += 2
			return token{kind: tokIf, text: ":-", line: l.line}, nil
		}
		return token{}, fmt.Errorf("line %d: unexpected ':'", l.line)
	case c == '<':
		if l.peekByte(1) == '=' {
			l.pos += 2
			return token{kind: tokOp, op: ast.OpLE, text: "<=", line: l.line}, nil
		}
		l.pos++
		return token{kind: tokOp, op: ast.OpLT, text: "<", line: l.line}, nil
	case c == '>':
		if l.peekByte(1) == '=' {
			l.pos += 2
			return token{kind: tokOp, op: ast.OpGE, text: ">=", line: l.line}, nil
		}
		l.pos++
		return token{kind: tokOp, op: ast.OpGT, text: ">", line: l.line}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, op: ast.OpEQ, text: "=", line: l.line}, nil
	case c == '!':
		if l.peekByte(1) == '=' {
			l.pos += 2
			return token{kind: tokOp, op: ast.OpNE, text: "!=", line: l.line}, nil
		}
		return token{}, fmt.Errorf("line %d: unexpected '!'", l.line)
	case c == '\'':
		text, end, ok := scanConst(l.src, start)
		if !ok {
			return token{}, fmt.Errorf("line %d: unterminated quoted constant", l.line)
		}
		l.pos = end
		return token{kind: tokString, text: text, line: l.line}, nil
	case isDigit(c) || c == '-' && isDigit(l.peekByte(1)):
		text, end, _ := scanConst(l.src, start)
		l.pos = end
		return token{kind: tokNumber, text: text, line: l.line}, nil
	}
	first, size := utf8.DecodeRuneInString(l.src[l.pos:])
	if !isIdentStart(first) {
		return token{}, fmt.Errorf("line %d: unexpected character %q", l.line, l.src[start:start+size])
	}
	l.pos += size
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	text := l.src[start:l.pos]
	if unicode.IsUpper(first) || first == '_' {
		return token{kind: tokVar, text: text, line: l.line}, nil
	}
	return token{kind: tokIdent, text: text, line: l.line}, nil
}

// scanFact scans one ground fact of the fast-path grammar (see the
// package doc) after any whitespace and comments. On success it consumes
// the fact through its '.', leaves the constants' texts in l.consts and
// returns the predicate and the line the fact starts on. Otherwise the
// lexer stays before the statement, and ok is false.
func (l *lexer) scanFact() (pred string, line int, ok bool) {
	l.skipSpace()
	s, i, line := l.src, l.pos, l.line
	if i == len(s) || !isLower(s[i]) {
		return "", 0, false
	}
	end := scanName(s, i)
	pred = s[i:end]
	l.consts = l.consts[:0]
	i, ln := skipBlank(s, end, line)
	if i < len(s) && s[i] == '(' {
		i, ln = skipBlank(s, i+1, ln)
		if i < len(s) && s[i] == ')' {
			i++
		} else {
			for {
				var c string
				if c, i, ok = scanConst(s, i); !ok {
					return "", 0, false
				}
				l.consts = append(l.consts, c)
				if i, ln = skipBlank(s, i, ln); i == len(s) {
					return "", 0, false
				}
				if s[i] == ')' {
					i++
					break
				}
				if s[i] != ',' {
					return "", 0, false
				}
				i, ln = skipBlank(s, i+1, ln)
			}
		}
		i, ln = skipBlank(s, i, ln)
	}
	if i == len(s) || s[i] != '.' {
		return "", 0, false
	}
	l.pos, l.line = i+1, ln
	return pred, line, true
}

// scanConst scans one fast-path constant at s[i:] — an ASCII name, an
// integer or a quoted string — returning its text (a quoted one without
// the quotes) and the index after it. The lexer scans integers and quoted
// strings with it too, so both paths read them alike.
func scanConst(s string, i int) (string, int, bool) {
	if i == len(s) {
		return "", 0, false
	}
	switch c := s[i]; {
	case isLower(c):
		end := scanName(s, i)
		return s[i:end], end, true
	case isDigit(c) || c == '-' && i+1 < len(s) && isDigit(s[i+1]):
		end := i + 1
		for end < len(s) && isDigit(s[end]) {
			end++
		}
		return s[i:end], end, true
	case c == '\'':
		for end := i + 1; end < len(s) && s[end] != '\n'; end++ {
			if s[end] == '\'' {
				return s[i+1 : end], end + 1, true
			}
		}
	}
	return "", 0, false
}

// scanName returns the end of the ASCII name starting at s[i], a
// lower-case letter.
func scanName(s string, i int) int {
	for i++; i < len(s); i++ {
		c := s[i]
		if !(isLower(c) || c >= 'A' && c <= 'Z' || isDigit(c) || c == '_' || c == '-') {
			break
		}
	}
	return i
}

// skipBlank skips spaces, tabs, CRs and newlines from s[i], counting the
// newlines onto line.
func skipBlank(s string, i, line int) (int, int) {
	for ; i < len(s); i++ {
		switch s[i] {
		case '\n':
			line++
		case ' ', '\t', '\r':
		default:
			return i, line
		}
	}
	return i, line
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) peekByte(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isLower(c byte) bool { return c >= 'a' && c <= 'z' }

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-'
}

type parser struct {
	lex *lexer
	// st resolves constants; without one, a constant parses to a hole
	// and its name is collected in names (ParseQueryNames). st is only
	// read: a name it lacks gets a local id, and freshNames[i] is the
	// name of id -(i+1), for the caller to intern once the text parses.
	st         *symtab.Table
	names      []string
	fresh      map[string]symtab.Sym
	freshNames []string
	// kept holds a copy of each predicate and variable name a program
	// parse has met, so the rules and relations it yields do not keep
	// the source text alive; nil for a query, whose text is small.
	kept   map[string]string
	tok    token
	hasTok bool
	err    error
	// allowHoles permits '?' placeholder terms (query templates only).
	allowHoles bool
}

// keep returns name, copied out of the source when the parse keeps
// names (see kept).
func (p *parser) keep(name string) string {
	if p.kept == nil {
		return name
	}
	k, ok := p.kept[name]
	if !ok {
		k = strings.Clone(name)
		p.kept[k] = k
	}
	return k
}

// constant is the term of a constant named text.
func (p *parser) constant(text string) ast.Term {
	if p.st == nil {
		p.names = append(p.names, text)
		return ast.Hole()
	}
	return ast.C(p.sym(text))
}

// sym is the symbol of the constant named text: st's symbol, or a local
// id.
func (p *parser) sym(text string) symtab.Sym {
	if s, ok := p.fresh[text]; ok {
		return s
	}
	if s, ok := p.st.Lookup(text); ok {
		return s
	}
	p.freshNames = append(p.freshNames, text)
	s := -symtab.Sym(len(p.freshNames))
	p.fresh[text] = s
	return s
}

func (p *parser) peek() token {
	if !p.hasTok {
		t, err := p.lex.next()
		if err != nil {
			p.err = err
			t = token{kind: tokEOF, line: p.lex.line}
		}
		p.tok = t
		p.hasTok = true
	}
	return p.tok
}

func (p *parser) next() token {
	t := p.peek()
	p.hasTok = false
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if p.err != nil {
		return t, p.err
	}
	if t.kind != k {
		return t, fmt.Errorf("line %d: expected %s, got %q", t.line, what, t.text)
	}
	return t, nil
}

// parseRule parses: literal [ ":-" literal {"," literal} ] "."
func (p *parser) parseRule() (ast.Rule, error) {
	head, err := p.parseLiteral()
	if err != nil {
		return ast.Rule{}, err
	}
	if head.IsBuiltin() {
		return ast.Rule{}, fmt.Errorf("line %d: rule head cannot be a built-in", p.lex.line)
	}
	var body []ast.Literal
	if p.peek().kind == tokIf {
		p.next()
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return ast.Rule{}, err
			}
			body = append(body, lit)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(tokDot, "'.'"); err != nil {
		return ast.Rule{}, err
	}
	return ast.Rule{Head: head, Body: body}, nil
}

// parseLiteral parses p(args) or "term op term".
func (p *parser) parseLiteral() (ast.Literal, error) {
	t := p.peek()
	if t.kind == tokVar || t.kind == tokNumber || t.kind == tokString {
		// Must be a comparison: term op term.
		left, err := p.parseTerm()
		if err != nil {
			return ast.Literal{}, err
		}
		opTok, err := p.expect(tokOp, "comparison operator")
		if err != nil {
			return ast.Literal{}, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return ast.Literal{}, err
		}
		return ast.Builtin(opTok.op, left, right), nil
	}
	name, err := p.expect(tokIdent, "predicate name")
	if err != nil {
		return ast.Literal{}, err
	}
	// An identifier followed by a comparison op is a constant comparison.
	if p.peek().kind == tokOp {
		opTok := p.next()
		right, err := p.parseTerm()
		if err != nil {
			return ast.Literal{}, err
		}
		return ast.Builtin(opTok.op, p.constant(name.text), right), nil
	}
	pred := p.keep(name.text)
	if p.peek().kind != tokLParen {
		return ast.Atom(pred), nil
	}
	p.next()
	var args []ast.Term
	if p.peek().kind != tokRParen {
		for {
			arg, err := p.parseTerm()
			if err != nil {
				return ast.Literal{}, err
			}
			args = append(args, arg)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return ast.Literal{}, err
	}
	return ast.Atom(pred, args...), nil
}

func (p *parser) parseTerm() (ast.Term, error) {
	t := p.next()
	if p.err != nil {
		return ast.Term{}, p.err
	}
	switch t.kind {
	case tokVar:
		return ast.V(p.keep(t.text)), nil
	case tokIdent, tokNumber, tokString:
		return p.constant(t.text), nil
	case tokQuestion:
		if p.allowHoles {
			return ast.Hole(), nil
		}
		return ast.Term{}, fmt.Errorf("line %d: '?' placeholder is only valid in a prepared-query template", t.line)
	}
	return ast.Term{}, fmt.Errorf("line %d: expected term, got %q", t.line, t.text)
}

// FormatFacts renders facts back to program text, one per line, for
// round-trip tests and debugging: a Result's Facts, or slices.All of a
// []Fact. Constants are quoted where needed so the output reparses to the
// same facts.
func FormatFacts(facts iter.Seq2[int, Fact], st *symtab.Table) string {
	var b strings.Builder
	for _, f := range facts {
		b.WriteString(f.Pred)
		b.WriteByte('(')
		for i, a := range f.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ast.C(a).Render(st))
		}
		b.WriteString(").\n")
	}
	return b.String()
}
