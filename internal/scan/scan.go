// Package scan is the shared skeleton of the C, Java, and CORBA IDL
// declaration parsers, which keep only their grammars. All three
// languages have C-style tokens: identifiers, integer/float literals,
// string/char literals, punctuation, and // and /* */ comments. The
// scanner owns the whole input budget (bytes, tokens, nesting depth),
// runs a grammar to the end of input, and skips what a grammar does not
// read. Its positioned Error is the error form of every frontend.
package scan

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/limits"
)

// TokKind classifies a token.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota + 1
	TokIdent
	TokNumber
	TokString
	TokChar
	TokPunct
)

// String names the kind.
func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "eof"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokChar:
		return "char"
	case TokPunct:
		return "punctuation"
	default:
		return fmt.Sprintf("tok(%d)", uint8(k))
	}
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

// Is reports whether t is the punctuation punct.
func (t Token) Is(punct string) bool { return t.Kind == TokPunct && t.Text == punct }

// String renders the token for error messages.
func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// Error is a scan or parse error carrying a source position.
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// multiPunct lists multi-rune punctuation recognized by the scanner,
// longest first. The set covers everything the three declaration grammars
// need (notably "::" for IDL scoped names and "..." for varargs).
var multiPunct = []string{"...", "::", "<<", ">>", "=="}

// Scanner tokenizes an input string. Create one with New, then call Next
// repeatedly; after the input is exhausted Next returns TokEOF forever.
type Scanner struct {
	file      string
	src       string
	pos       int
	line      int
	col       int
	err       *Error
	peek      *Token
	peek2     *Token
	budget    limits.Budget
	tokens    int
	depth     int
	budgetErr error
}

// New returns a Scanner over src with the default input budget. file is
// used in error messages only.
func New(file, src string) *Scanner {
	return NewBudget(file, src, limits.Budget{})
}

// NewBudget returns a Scanner over src enforcing the given input budget
// (zero fields take limits defaults). If src exceeds the byte budget, or
// scanning exceeds the token budget, the scanner truncates to EOF and
// records an error wrapping limits.ErrBudget, which Parse reports in
// place of any other. Parsers bound their nesting with Enter and Chain.
func NewBudget(file, src string, b limits.Budget) *Scanner {
	s := &Scanner{file: file, src: src, line: 1, col: 1, budget: b.WithDefaults()}
	if len(src) > s.budget.MaxBytes {
		s.budgetErr = limits.Exceededf("%s: input is %d bytes, budget is %d",
			file, len(src), s.budget.MaxBytes)
		s.src = "" // nothing is scanned from an oversized input
	}
	return s
}

// Parse runs decl once per top-level declaration until the input ends
// and returns the first error. A budget violation comes before any
// other: a truncated input produces bogus syntax errors at the cut.
func (s *Scanner) Parse(decl func() error) error {
	for s.Peek().Kind != TokEOF {
		if err := decl(); err != nil {
			if s.budgetErr != nil {
				return s.budgetErr
			}
			return err
		}
	}
	return s.Err()
}

// Enter guards one step of a parser's recursive descent, at token at,
// against the depth budget; pair it with Leave.
func (s *Scanner) Enter(at Token) error {
	if s.depth++; s.depth > s.budget.MaxDepth {
		return limits.Exceededf("%d:%d: declaration nesting exceeds depth budget of %d",
			at.Line, at.Col, s.budget.MaxDepth)
	}
	return nil
}

// Leave ends the step of recursive descent the last Enter began.
func (s *Scanner) Leave() { s.depth-- }

// Chain guards a chain a parser builds iteratively (pointers, array
// suffixes) against the depth budget: later recursive walks over the
// resulting Stype are as deep as the chain is long. format names the
// chain and takes the budget, as "pointer chain exceeds depth budget of
// %d".
func (s *Scanner) Chain(links int, format string) error {
	if links > s.budget.MaxDepth {
		return limits.Exceededf(format, s.budget.MaxDepth)
	}
	return nil
}

// Err returns the first error encountered, if any. A budget violation
// takes precedence over lexical errors, which are a symptom of the
// truncation.
func (s *Scanner) Err() error {
	if s.budgetErr != nil {
		return s.budgetErr
	}
	if s.err == nil {
		return nil
	}
	return s.err
}

// Errorf records and returns a positioned error at the given token.
func (s *Scanner) Errorf(at Token, format string, args ...interface{}) error {
	e := &Error{File: s.file, Line: at.Line, Col: at.Col, Msg: fmt.Sprintf(format, args...)}
	if s.err == nil {
		s.err = e
	}
	return e
}

// Peek returns the next token without consuming it.
func (s *Scanner) Peek() Token {
	if s.peek == nil {
		t := s.scan()
		s.peek = &t
	}
	return *s.peek
}

// Peek2 returns the token after the next one without consuming anything.
func (s *Scanner) Peek2() Token {
	s.Peek()
	if s.peek2 == nil {
		t := s.scan()
		s.peek2 = &t
	}
	return *s.peek2
}

// Next consumes and returns the next token.
func (s *Scanner) Next() Token {
	if s.peek != nil {
		t := *s.peek
		s.peek = s.peek2
		s.peek2 = nil
		return t
	}
	return s.scan()
}

// Accept consumes the next token if it is punctuation with the given text
// and reports whether it did.
func (s *Scanner) Accept(punct string) bool {
	if s.Peek().Is(punct) {
		s.Next()
		return true
	}
	return false
}

// AcceptIdent consumes the next token if it is the given identifier
// (keyword) and reports whether it did.
func (s *Scanner) AcceptIdent(word string) bool {
	t := s.Peek()
	if t.Kind == TokIdent && t.Text == word {
		s.Next()
		return true
	}
	return false
}

// Expect consumes the next token, which must be punctuation with the given
// text.
func (s *Scanner) Expect(punct string) (Token, error) {
	t := s.Next()
	if !t.Is(punct) {
		return t, s.Errorf(t, "expected %q, found %s", punct, t)
	}
	return t, nil
}

// ExpectIdent consumes the next token, which must be an identifier, and
// returns its text.
func (s *Scanner) ExpectIdent() (Token, error) {
	t := s.Next()
	if t.Kind != TokIdent {
		return t, s.Errorf(t, "expected identifier, found %s", t)
	}
	return t, nil
}

// Skip consumes code the grammar does not read, counting the
// one-character brackets in open against those in close. With one
// bracket pair it skips a group: the opening bracket, which must come
// next, through its match. With several it skips an expression, up to
// and not including the first "," or ";" outside brackets. Input that
// ends first is an "unterminated <what>" error, at the group's opening
// bracket or at the end of an expression.
func (s *Scanner) Skip(open, close, what string) error {
	group := len(open) == 1
	at, depth := s.Peek(), 0
	if group {
		if _, err := s.Expect(open); err != nil {
			return err
		}
		depth = 1
	}
	for depth > 0 || !group {
		t := s.Peek()
		if t.Kind == TokEOF {
			if !group {
				at = t
			}
			return s.Errorf(at, "unterminated %s", what)
		}
		if t.Kind == TokPunct && len(t.Text) == 1 {
			switch {
			case strings.Contains(open, t.Text):
				depth++
			case strings.Contains(close, t.Text):
				depth--
			case !group && depth == 0 && (t.Text == "," || t.Text == ";"):
				return nil
			}
		}
		s.Next()
	}
	return nil
}

func (s *Scanner) scan() Token {
	s.skipSpaceAndComments()
	start := Token{Line: s.line, Col: s.col}
	if s.pos >= len(s.src) {
		start.Kind = TokEOF
		return start
	}
	if s.tokens++; s.tokens > s.budget.MaxTokens {
		if s.budgetErr == nil {
			s.budgetErr = limits.Exceededf("%s:%d:%d: token budget of %d exhausted",
				s.file, s.line, s.col, s.budget.MaxTokens)
		}
		s.pos = len(s.src)
		start.Kind = TokEOF
		return start
	}
	r, size := utf8.DecodeRuneInString(s.src[s.pos:])
	switch {
	case isIdentStart(r):
		begin := s.pos
		for s.pos < len(s.src) {
			r, size = utf8.DecodeRuneInString(s.src[s.pos:])
			if !isIdentCont(r) {
				break
			}
			s.advance(size)
		}
		start.Kind = TokIdent
		start.Text = s.src[begin:s.pos]
		return start
	case unicode.IsDigit(r):
		begin := s.pos
		for s.pos < len(s.src) {
			r, size = utf8.DecodeRuneInString(s.src[s.pos:])
			// Accept hex digits, suffixes, exponents, and dots; the parser
			// validates the literal form.
			if !isIdentCont(r) && r != '.' {
				break
			}
			s.advance(size)
		}
		start.Kind = TokNumber
		start.Text = s.src[begin:s.pos]
		return start
	case r == '"':
		text, ok := s.scanQuoted('"')
		if !ok {
			start.Kind = TokEOF
			return start
		}
		start.Kind = TokString
		start.Text = text
		return start
	case r == '\'':
		text, ok := s.scanQuoted('\'')
		if !ok {
			start.Kind = TokEOF
			return start
		}
		start.Kind = TokChar
		start.Text = text
		return start
	default:
		for _, mp := range multiPunct {
			if strings.HasPrefix(s.src[s.pos:], mp) {
				s.advance(len(mp))
				start.Kind = TokPunct
				start.Text = mp
				return start
			}
		}
		s.advance(size)
		start.Kind = TokPunct
		start.Text = string(r)
		return start
	}
}

// scanQuoted consumes a quoted literal including its delimiters and
// returns the unquoted content. Escapes are kept verbatim.
func (s *Scanner) scanQuoted(quote byte) (string, bool) {
	openLine, openCol := s.line, s.col
	s.advance(1) // opening quote
	begin := s.pos
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if c == '\\' && s.pos+1 < len(s.src) {
			s.advance(2)
			continue
		}
		if c == quote {
			text := s.src[begin:s.pos]
			s.advance(1)
			return text, true
		}
		if c == '\n' {
			break
		}
		s.advance(1)
	}
	s.Errorf(Token{Line: openLine, Col: openCol}, "unterminated %c literal", quote)
	return "", false
}

func (s *Scanner) skipSpaceAndComments() {
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			s.advance(1)
		case c == '/' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '/':
			for s.pos < len(s.src) && s.src[s.pos] != '\n' {
				s.advance(1)
			}
		case c == '/' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '*':
			openLine, openCol := s.line, s.col
			s.advance(2)
			closed := false
			for s.pos+1 < len(s.src) {
				if s.src[s.pos] == '*' && s.src[s.pos+1] == '/' {
					s.advance(2)
					closed = true
					break
				}
				s.advance(1)
			}
			if !closed {
				s.pos = len(s.src)
				s.Errorf(Token{Line: openLine, Col: openCol}, "unterminated block comment")
			}
		case c == '#':
			// Preprocessor directives and IDL #pragma lines are skipped
			// whole; Mockingbird consumes already-preprocessed declarations.
			for s.pos < len(s.src) && s.src[s.pos] != '\n' {
				s.advance(1)
			}
		default:
			return
		}
	}
}

func (s *Scanner) advance(n int) {
	for i := 0; i < n && s.pos < len(s.src); i++ {
		if s.src[s.pos] == '\n' {
			s.line++
			s.col = 1
		} else {
			s.col++
		}
		s.pos++
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
