package core

import (
	"testing"

	"repro/internal/bind"
	"repro/internal/jheap"
	"repro/internal/value"
)

// TestCCallsJavaDirection runs a stub in the reverse direction of the
// fitter example: C-side code is the caller, a Java method the callee
// (the VisualAge trial bridges both ways between the Java environment and
// the C++ engine).
func TestCCallsJavaDirection(t *testing.T) {
	s := NewSession()
	if err := s.LoadC("c", `double mean(double xs[], int n);`, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Annotate("c", "annotate mean.xs length-from=n"); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadJava("java", `
		class Stats {
			double mean(double[] xs) { return 0; }
		}
	`); err != nil {
		t.Fatal(err)
	}
	jFn, err := s.MethodDecl("java", "Stats", "mean")
	if err != nil {
		t.Fatal(err)
	}

	// The Java implementation, operating on the heap: the binding writes
	// the argument into it and reads the result back.
	heap := jheap.NewHeap()
	jbinder := bind.NewJ(s.Universe("java"))
	method := s.Universe("java").Lookup("Stats").Type.Methods[0]
	target := TargetFunc(func(in value.Value) (value.Value, error) {
		xs, err := jbinder.Write(method.Params[0].Type, heap, in.(value.Record).Fields[0])
		if err != nil {
			return nil, err
		}
		n, err := heap.ArrayLen(xs.R)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			sl, err := heap.PrimArrayAt(xs.R, i)
			if err != nil {
				return nil, err
			}
			sum += sl.F
		}
		mean, err := jbinder.Read(method.Result, heap, jheap.FloatSlot(sum/float64(max(n, 1))))
		return value.NewRecord(mean), err
	})

	// The C side is the caller: its declaration shapes the inputs.
	stub, err := s.NewCallStub("c", "mean", "java", jFn, EngineCompiled, target)
	if err != nil {
		t.Fatal(err)
	}
	xs := value.FromSlice([]value.Value{
		value.Real{V: 2}, value.Real{V: 4}, value.Real{V: 9},
	})
	out, err := stub.Invoke(value.NewRecord(xs))
	if err != nil {
		t.Fatal(err)
	}
	rec := out.(value.Record)
	if len(rec.Fields) != 1 || !value.Equal(rec.Fields[0], value.Real{V: 5}) {
		t.Errorf("mean = %s, want 5", out)
	}
}

// TestMessageStubSubtype checks the §3 one-way-converter case: a message
// whose Mtype is a strict subtype of the receiver's still gets a send
// stub.
func TestMessageStubSubtype(t *testing.T) {
	s := NewSession()
	if err := s.LoadJava("narrow", `class Evt { byte code; float w; }`); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadJava("wide", `class Evt { int code; double w; }`); err != nil {
		t.Fatal(err)
	}
	var got value.Value
	sink := TargetFunc(func(v value.Value) (value.Value, error) {
		got = v
		return value.Record{}, nil
	})
	stub, err := s.NewMessageStub("narrow", "Evt", "wide", "Evt", EngineCompiled, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := stub.Send(value.NewRecord(value.NewInt(-5), value.Real{V: 1.5})); err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, value.NewRecord(value.NewInt(-5), value.Real{V: 1.5})) {
		t.Errorf("received = %s", got)
	}

	// The reverse direction must fail: wide does not flow into narrow.
	if _, err := s.NewMessageStub("wide", "Evt", "narrow", "Evt", EngineCompiled, sink); err == nil {
		t.Error("widening message direction accepted")
	}
}
