package tuplespace

import (
	"context"
	"testing"
)

// Allocation guards for the local hot path. PR 2's compiled-template
// rewrite accidentally moved its cost into allocation (the
// self-referential scratch arrays forced every compiled template to
// the heap: OutInp went 288 → 1016 B/op); these tests pin the fixed
// budgets so a regression fails CI instead of a benchmark diff.
//
// The budgets are exact, not ≤: Out pays exactly one allocation (the
// defensive copy of the caller's fields, which the space takes
// ownership of), and the non-blocking match path pays zero.

func TestOutInpAllocs(t *testing.T) {
	s := New()
	defer s.Close()
	// Warm up so partition and map growth is behind us; the retained
	// empty partition makes the steady-state cycle allocation-free on
	// the space side.
	for i := 0; i < 64; i++ {
		if err := s.Out(context.Background(), "k", i); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Inp(context.Background(), "k", FormalInt); err != nil || !ok {
			t.Fatalf("warmup Inp: ok=%v err=%v", ok, err)
		}
	}
	outs := testing.AllocsPerRun(200, func() {
		if err := s.Out(context.Background(), "k", 7); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := s.Inp(context.Background(), "k", FormalInt); !ok {
			t.Fatal("Inp missed")
		}
	})
	// 1 = Out's tuple copy; Inp contributes 0.
	if outs > 1 {
		t.Errorf("Out+Inp cycle = %v allocs/op, want ≤ 1", outs)
	}
}

// The same cycle over a resident bag: the head take advances the
// partition's window and the out extends it, so the backing array is
// renewed once per several hundred cycles — amortized to nothing, and
// the cycle stays at Out's one allocation.
func TestBagCycleAllocs(t *testing.T) {
	s := New()
	defer s.Close()
	for i := 0; i < 1024; i++ {
		if err := s.Out(context.Background(), "k", i); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(2000, func() {
		if _, ok, _ := s.Inp(context.Background(), "k", FormalInt); !ok {
			t.Fatal("Inp missed")
		}
		if err := s.Out(context.Background(), "k", 7); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("Inp+Out cycle over a 1024-tuple bag = %v allocs/op, want ≤ 1", n)
	}
	if got := slen(s); got != 1024 {
		t.Errorf("resident tuples = %d, want 1024", got)
	}
}

func TestInpMissAllocs(t *testing.T) {
	s := New()
	defer s.Close()
	if err := s.Out(context.Background(), "other", 1); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, ok, _ := s.Inp(context.Background(), "absent", FormalInt); ok {
			t.Fatal("Inp matched unexpectedly")
		}
	})
	if n > 0 {
		t.Errorf("missing Inp = %v allocs/op, want 0", n)
	}
}

func TestRdpAllocs(t *testing.T) {
	s := New()
	defer s.Close()
	if err := s.Out(context.Background(), "k", 1, 2.5, "v"); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, ok, _ := s.Rdp(context.Background(), "k", FormalInt, FormalFloat, FormalString); !ok {
			t.Fatal("Rdp missed")
		}
	})
	if n > 0 {
		t.Errorf("Rdp = %v allocs/op, want 0", n)
	}
}

func TestCompiledTemplateMatchAllocs(t *testing.T) {
	tm := Template{"task", FormalInt, FormalString, 3.14}
	tu := Tuple{"task", 42, "payload", 3.14}
	n := testing.AllocsPerRun(200, func() {
		var farr [6]compiledField
		var sbuf [88]byte
		ct, err := compileTemplate(tm, farr[:0], sbuf[:0])
		if err != nil || !ct.match(tu) {
			t.Fatal("template must match")
		}
		if ct.match(Tuple{"task", 42, "payload"}) {
			t.Fatal("arity mismatch must not match")
		}
	})
	if n > 0 {
		t.Errorf("compile+match = %v allocs/op, want 0", n)
	}
}
