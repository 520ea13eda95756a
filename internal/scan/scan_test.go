package scan

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/limits"
)

func collect(t *testing.T, src string) []Token {
	t.Helper()
	s := New("test", src)
	var out []Token
	for {
		tok := s.Next()
		if tok.Kind == TokEOF {
			break
		}
		out = append(out, tok)
		if len(out) > 1000 {
			t.Fatal("runaway scanner")
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scan error: %v", err)
	}
	return out
}

func TestIdentifiersAndPunct(t *testing.T) {
	toks := collect(t, "typedef float point[2];")
	texts := make([]string, len(toks))
	for i, tok := range toks {
		texts[i] = tok.Text
	}
	want := []string{"typedef", "float", "point", "[", "2", "]", ";"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestComments(t *testing.T) {
	toks := collect(t, "a // line comment\nb /* block\ncomment */ c")
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" || toks[2].Text != "c" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestPreprocessorSkipped(t *testing.T) {
	toks := collect(t, "#include <stdio.h>\nint x;\n#pragma once\n")
	if len(toks) != 3 {
		t.Errorf("tokens = %v", toks)
	}
}

func TestPositions(t *testing.T) {
	s := New("f.c", "ab\n  cd")
	first := s.Next()
	if first.Line != 1 || first.Col != 1 {
		t.Errorf("first at %d:%d", first.Line, first.Col)
	}
	second := s.Next()
	if second.Line != 2 || second.Col != 3 {
		t.Errorf("second at %d:%d", second.Line, second.Col)
	}
}

func TestMultiPunct(t *testing.T) {
	toks := collect(t, "a::b ... <<")
	texts := []string{}
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	want := "a :: b ... <<"
	if strings.Join(texts, " ") != want {
		t.Errorf("tokens = %v", texts)
	}
}

func TestStringAndCharLiterals(t *testing.T) {
	toks := collect(t, `"hello \"x\"" 'c' '\n'`)
	if len(toks) != 3 {
		t.Fatalf("tokens = %v", toks)
	}
	if toks[0].Kind != TokString || toks[0].Text != `hello \"x\"` {
		t.Errorf("string = %+v", toks[0])
	}
	if toks[1].Kind != TokChar || toks[1].Text != "c" {
		t.Errorf("char = %+v", toks[1])
	}
	if toks[2].Kind != TokChar || toks[2].Text != `\n` {
		t.Errorf("escaped char = %+v", toks[2])
	}
}

func TestUnterminatedString(t *testing.T) {
	s := New("f", `"abc`)
	s.Next()
	if s.Err() == nil {
		t.Error("unterminated string not reported")
	}
}

func TestUnterminatedComment(t *testing.T) {
	s := New("f", "/* oops")
	tok := s.Next()
	if tok.Kind != TokEOF {
		t.Errorf("token = %+v, want EOF", tok)
	}
	if s.Err() == nil {
		t.Error("unterminated comment not reported")
	}
}

func TestNumbers(t *testing.T) {
	toks := collect(t, "0 42 0x1F 3.25 1e9 10L")
	want := []string{"0", "42", "0x1F", "3.25", "1e9", "10L"}
	for i, w := range want {
		if toks[i].Kind != TokNumber || toks[i].Text != w {
			t.Errorf("token %d = %+v, want number %q", i, toks[i], w)
		}
	}
}

func TestPeekAndPeek2(t *testing.T) {
	s := New("f", "a b c")
	if s.Peek().Text != "a" || s.Peek2().Text != "b" {
		t.Error("peek wrong")
	}
	if s.Next().Text != "a" || s.Peek().Text != "b" || s.Peek2().Text != "c" {
		t.Error("peek after next wrong")
	}
}

func TestAcceptAndExpect(t *testing.T) {
	s := New("f", "( foo )")
	if !s.Accept("(") {
		t.Fatal("Accept ( failed")
	}
	if s.Accept(")") {
		t.Fatal("Accept ) should not match foo")
	}
	tok, err := s.ExpectIdent()
	if err != nil || tok.Text != "foo" {
		t.Fatalf("ExpectIdent = %v, %v", tok, err)
	}
	if _, err := s.Expect(")"); err != nil {
		t.Fatalf("Expect ) failed: %v", err)
	}
	if _, err := s.Expect(";"); err == nil {
		t.Error("Expect ; at EOF should fail")
	}
}

func TestAcceptIdent(t *testing.T) {
	s := New("f", "typedef x")
	if !s.AcceptIdent("typedef") {
		t.Error("AcceptIdent typedef failed")
	}
	if s.AcceptIdent("struct") {
		t.Error("AcceptIdent struct matched x")
	}
}

func TestEOFForever(t *testing.T) {
	s := New("f", "")
	for i := 0; i < 3; i++ {
		if tok := s.Next(); tok.Kind != TokEOF {
			t.Fatalf("token %d = %+v, want EOF", i, tok)
		}
	}
}

func TestErrorFormat(t *testing.T) {
	e := &Error{File: "x.idl", Line: 3, Col: 7, Msg: "boom"}
	if e.Error() != "x.idl:3:7: boom" {
		t.Errorf("Error() = %q", e.Error())
	}
	e2 := &Error{Line: 1, Col: 2, Msg: "m"}
	if e2.Error() != "1:2: m" {
		t.Errorf("Error() = %q", e2.Error())
	}
}

// TestSkip drives the three skips a grammar makes: a brace group and a
// paren group, through the matching close and counting only their own
// pair, and an expression, up to a "," or ";" outside brackets, where a
// stray close leaves no depth that ends it.
func TestSkip(t *testing.T) {
	cases := []struct {
		src, open, close, what string
		next, err              string // the token left next, or the error
	}{
		{"{ ( { } ] } x", "{", "}", "block", "x", ""},
		{"( { ( ) } ) x", "(", ")", "parameter list", "x", ""},
		{"f(a, [b; c]) + {d} , x", "([{", ")]}", "initializer", ",", ""},
		{"a ; x", "([{", ")]}", "initializer", ";", ""},
		{"x", "{", "}", "block", "", `1:1: expected "{", found "x"`},
		{"  { { }", "{", "}", "block", "", "1:3: unterminated block"},
		{"(", "(", ")", "parameter list", "", "1:1: unterminated parameter list"},
		{"a ) ( b ; } ;", "([{", ")]}", "initializer", ";", ""},
		{"a ) ;", "([{", ")]}", "initializer", "", "1:6: unterminated initializer"},
	}
	for _, c := range cases {
		s := New("", c.src)
		err := s.Skip(c.open, c.close, c.what)
		switch {
		case c.err != "":
			if err == nil || err.Error() != c.err {
				t.Errorf("Skip over %q = %v, want %q", c.src, err, c.err)
			}
		case err != nil:
			t.Errorf("Skip over %q: %v", c.src, err)
		case s.Peek().Text != c.next:
			t.Errorf("Skip over %q left %s next, want %q", c.src, s.Peek(), c.next)
		}
	}
}

// TestDepthGuards holds Enter, Leave and Chain to the depth budget and
// Parse to the budget's precedence over the syntax error a truncated
// input causes.
func TestDepthGuards(t *testing.T) {
	s := NewBudget("f", "a b c", limits.Budget{MaxDepth: 2})
	at := s.Peek()
	for i := 0; i < 2; i++ {
		if err := s.Enter(at); err != nil {
			t.Fatalf("Enter %d: %v", i+1, err)
		}
	}
	if err := s.Enter(at); !errors.Is(err, limits.ErrBudget) || !strings.HasPrefix(err.Error(), "1:1: declaration nesting exceeds depth budget of 2") {
		t.Errorf("third Enter = %v", err)
	}
	s.Leave()
	s.Leave()
	if err := s.Enter(at); err != nil {
		t.Errorf("Enter after Leave: %v", err)
	}
	if err := s.Chain(2, "links exceed depth budget of %d"); err != nil {
		t.Errorf("Chain(2) = %v", err)
	}
	if err := s.Chain(3, "links exceed depth budget of %d"); !errors.Is(err, limits.ErrBudget) || !strings.HasPrefix(err.Error(), "links exceed depth budget of 2") {
		t.Errorf("Chain(3) = %v", err)
	}

	truncated := NewBudget("f", "a b c", limits.Budget{MaxTokens: 2})
	err := truncated.Parse(func() error {
		for truncated.Next().Kind != TokEOF {
		}
		return truncated.Errorf(truncated.Peek(), "unexpected end of input")
	})
	if !errors.Is(err, limits.ErrBudget) {
		t.Errorf("Parse of a truncated input = %v, want the budget error", err)
	}
	whole := New("f", "a b c")
	if err := whole.Parse(func() error { whole.Next(); return nil }); err != nil {
		t.Errorf("Parse = %v", err)
	}
}
