package scan

import (
	"strings"
	"testing"
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
