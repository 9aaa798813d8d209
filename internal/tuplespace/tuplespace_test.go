package tuplespace

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"freepdm/internal/obs"
)

func TestOutInpRoundTrip(t *testing.T) {
	s := New()
	if err := s.Out(context.Background(), "task", 7, 3.5); err != nil {
		t.Fatal(err)
	}
	tu, ok, _ := s.Inp(context.Background(), "task", FormalInt, FormalFloat)
	if !ok {
		t.Fatal("expected a match")
	}
	if tu[1].(int) != 7 || tu[2].(float64) != 3.5 {
		t.Fatalf("wrong tuple: %v", tu)
	}
	if _, ok, _ := s.Inp(context.Background(), "task", FormalInt, FormalFloat); ok {
		t.Fatal("tuple should have been consumed")
	}
}

func TestRdpDoesNotConsume(t *testing.T) {
	s := New()
	s.Out(context.Background(), "x", 1)
	for i := 0; i < 3; i++ {
		if _, ok, _ := s.Rdp(context.Background(), "x", FormalInt); !ok {
			t.Fatalf("read %d failed", i)
		}
	}
	if slen(s) != 1 {
		t.Fatalf("Len = %d, want 1", slen(s))
	}
}

func TestActualValueMatching(t *testing.T) {
	s := New()
	s.Out(context.Background(), "result", 3, "motif-A")
	s.Out(context.Background(), "result", 4, "motif-B")
	tu, ok, _ := s.Inp(context.Background(), "result", 4, FormalString)
	if !ok || tu[2].(string) != "motif-B" {
		t.Fatalf("got %v ok=%v", tu, ok)
	}
}

func TestTypeMismatchDoesNotMatch(t *testing.T) {
	s := New()
	s.Out(context.Background(), "n", int64(5))
	if _, ok, _ := s.Inp(context.Background(), "n", FormalInt); ok {
		t.Fatal("int formal must not match int64 field")
	}
	if _, ok, _ := s.Inp(context.Background(), "n", FormalInt64); !ok {
		t.Fatal("int64 formal must match int64 field")
	}
}

func TestArityMismatch(t *testing.T) {
	s := New()
	s.Out(context.Background(), "a", 1, 2)
	if _, ok, _ := s.Inp(context.Background(), "a", FormalInt); ok {
		t.Fatal("shorter template must not match")
	}
	if _, ok, _ := s.Inp(context.Background(), "a", FormalInt, FormalInt, FormalInt); ok {
		t.Fatal("longer template must not match")
	}
}

func TestSliceFieldsMatchByValue(t *testing.T) {
	s := New()
	s.Out(context.Background(), "vec", []int{1, 2, 3})
	if _, ok, _ := s.Inp(context.Background(), "vec", []int{1, 2, 4}); ok {
		t.Fatal("different slice contents must not match as actual")
	}
	tu, ok, _ := s.Inp(context.Background(), "vec", []int{1, 2, 3})
	if !ok {
		t.Fatal("equal slice actual should match")
	}
	if got := tu[1].([]int); got[2] != 3 {
		t.Fatalf("bad payload %v", got)
	}
}

// TestTemplateMatchesAgreesWithSpace pins the one matcher: on the
// pairs where a reflect-based matcher and the compiled one could part
// ways, Template.Matches answers as Space.Rdp does.
func TestTemplateMatchesAgreesWithSpace(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		tm   Template
		tu   Tuple
		want bool
	}{
		{"int actual vs int64", Template{"t", 5}, Tuple{"t", int64(5)}, false},
		{"int64 actual vs int", Template{"t", int64(5)}, Tuple{"t", 5}, false},
		{"int actual vs int", Template{"t", 5}, Tuple{"t", 5}, true},
		{"int64 actual vs int64", Template{"t", int64(5)}, Tuple{"t", int64(5)}, true},
		{"nil bytes vs empty bytes", Template{"t", []byte(nil)}, Tuple{"t", []byte{}}, false},
		{"empty bytes vs nil bytes", Template{"t", []byte{}}, Tuple{"t", []byte(nil)}, false},
		{"nil bytes vs nil bytes", Template{"t", []byte(nil)}, Tuple{"t", []byte(nil)}, true},
		{"empty bytes vs empty bytes", Template{"t", []byte{}}, Tuple{"t", []byte{}}, true},
		{"bytes formal vs nil bytes", Template{"t", FormalBytes}, Tuple{"t", []byte(nil)}, true},
		{"bytes formal vs empty bytes", Template{"t", FormalBytes}, Tuple{"t", []byte{}}, true},
		{"NaN actual vs NaN", Template{"t", nan}, Tuple{"t", nan}, false},
		{"float formal vs NaN", Template{"t", FormalFloat}, Tuple{"t", nan}, true},
		{"NaN in a slice actual", Template{"t", []float64{nan}}, Tuple{"t", []float64{nan}}, false},
		{"int formal vs int", Template{"t", FormalInt}, Tuple{"t", 1}, true},
		{"int formal vs int64", Template{"t", FormalInt}, Tuple{"t", int64(1)}, false},
		{"int64 formal vs int64", Template{"t", FormalInt64}, Tuple{"t", int64(1)}, true},
		{"int64 formal vs int", Template{"t", FormalInt64}, Tuple{"t", 1}, false},
		{"float formal vs float", Template{"t", FormalFloat}, Tuple{"t", 1.5}, true},
		{"float formal vs int", Template{"t", FormalFloat}, Tuple{"t", 1}, false},
		{"string formal vs string", Template{"t", FormalString}, Tuple{"t", "x"}, true},
		{"string formal vs bytes", Template{"t", FormalString}, Tuple{"t", []byte("x")}, false},
		{"bool formal vs bool", Template{"t", FormalBool}, Tuple{"t", false}, true},
		{"bool formal vs int", Template{"t", FormalBool}, Tuple{"t", 0}, false},
		{"bytes formal vs string", Template{"t", FormalBytes}, Tuple{"t", "x"}, false},
		{"ints formal vs ints", Template{"t", FormalInts}, Tuple{"t", []int{1}}, true},
		{"ints formal vs floats", Template{"t", FormalInts}, Tuple{"t", []float64{1}}, false},
		{"floats formal vs floats", Template{"t", FormalFloats}, Tuple{"t", []float64(nil)}, true},
		{"strings formal vs strings", Template{"t", FormalStrings}, Tuple{"t", []string{"a"}}, true},
		{"strings formal vs ints", Template{"t", FormalStrings}, Tuple{"t", []int{1}}, false},
		{"slice actual, equal", Template{"t", []int{1, 2}}, Tuple{"t", []int{1, 2}}, true},
		{"slice actual, unequal", Template{"t", []int{1, 2}}, Tuple{"t", []int{1, 3}}, false},
		{"nil actual vs nil", Template{"t", nil}, Tuple{"t", nil}, true},
		{"shorter template", Template{"t", FormalInt}, Tuple{"t", 1, 2}, false},
		{"longer template", Template{"t", FormalInt, FormalInt}, Tuple{"t", 1}, false},
		{"other tag", Template{"u", FormalInt}, Tuple{"t", 1}, false},
	}
	ctx := context.Background()
	for _, c := range cases {
		s := New()
		if err := s.Out(ctx, c.tu...); err != nil {
			t.Fatalf("%s: Out: %v", c.name, err)
		}
		_, ok, err := s.Rdp(ctx, c.tm...)
		if err != nil {
			t.Fatalf("%s: Rdp: %v", c.name, err)
		}
		if got := c.tm.Matches(c.tu); got != ok || got != c.want {
			t.Errorf("%s: Matches = %v, Rdp = %v, want %v", c.name, got, ok, c.want)
		}
	}
}

func TestInBlocksUntilOut(t *testing.T) {
	s := New()
	done := make(chan Tuple)
	go func() {
		tu, err := s.In(context.Background(), "late", FormalInt)
		if err != nil {
			t.Error(err)
		}
		done <- tu
	}()
	select {
	case <-done:
		t.Fatal("In returned before Out")
	case <-time.After(10 * time.Millisecond):
	}
	s.Out(context.Background(), "late", 42)
	select {
	case tu := <-done:
		if tu[1].(int) != 42 {
			t.Fatalf("got %v", tu)
		}
	case <-time.After(time.Second):
		t.Fatal("In never woke up")
	}
}

func TestRdWaitersAllWakeButTupleStays(t *testing.T) {
	s := New()
	const readers = 4
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Rd(context.Background(), "broadcast", FormalInt); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.Out(context.Background(), "broadcast", 1)
	wg.Wait()
	if slen(s) != 1 {
		t.Fatalf("Rd consumed the tuple: Len=%d", slen(s))
	}
}

func TestOnlyOneInWaiterConsumes(t *testing.T) {
	s := New()
	const takers = 8
	results := make(chan error, takers)
	for i := 0; i < takers; i++ {
		go func() {
			_, err := s.In(context.Background(), "one", FormalInt)
			results <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.Out(context.Background(), "one", 99)
	select {
	case err := <-results:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("no taker woke")
	}
	// The rest must still be blocked; close and confirm they all error.
	s.Close()
	for i := 0; i < takers-1; i++ {
		if err := <-results; err != ErrClosed {
			t.Fatalf("waiter %d: err=%v, want ErrClosed", i, err)
		}
	}
}

func TestCloseRejectsOps(t *testing.T) {
	s := New()
	s.Close()
	if err := s.Out(context.Background(), "x", 1); err != ErrClosed {
		t.Fatalf("Out after close: %v", err)
	}
	if _, err := s.In(context.Background(), "x", FormalInt); err != ErrClosed {
		t.Fatalf("In after close: %v", err)
	}
	s.Close() // idempotent
}

func TestSnapshotRestore(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Out(context.Background(), "t", i)
	}
	snap := s.Snapshot()
	if len(snap) != 10 {
		t.Fatalf("snapshot has %d tuples", len(snap))
	}
	s.Inp(context.Background(), "t", 3)
	s.Inp(context.Background(), "t", 4)
	if slen(s) != 8 {
		t.Fatalf("Len=%d", slen(s))
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if slen(s) != 10 {
		t.Fatalf("after restore Len=%d, want 10", slen(s))
	}
	if _, ok, _ := s.Inp(context.Background(), "t", 3); !ok {
		t.Fatal("restored tuple (t,3) missing")
	}
}

func TestRestoreWakesWaiters(t *testing.T) {
	s := New()
	done := make(chan struct{})
	go func() {
		s.In(context.Background(), "restored", FormalInt)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	s.Restore([]Tuple{{"restored", 5}})
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waiter not woken by Restore")
	}
}

func TestStatsCounting(t *testing.T) {
	s := newObserved()
	s.Out(context.Background(), "a", 1)
	s.Inp(context.Background(), "a", FormalInt)
	s.Rdp(context.Background(), "a", FormalInt)
	s.Out(context.Background(), "a", 2)
	s.In(context.Background(), "a", FormalInt)
	s.Out(context.Background(), "a", 3)
	s.Rd(context.Background(), "a", FormalInt)
	want := map[string]int64{"ts.out": 3, "ts.in": 1, "ts.rd": 1, "ts.inp": 1, "ts.rdp": 1, "ts.blocked": 0}
	for name, n := range want {
		if got := counter(s, name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if w := s.Registry().Snapshot().Histograms["ts.wait"]; w.Count != 0 || w.SumNanos != 0 {
		t.Fatalf("nothing blocked, ts.wait %+v", w)
	}
}

func TestStatsBlockedNanos(t *testing.T) {
	s := newObserved()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.In(context.Background(), "slow", FormalInt)
	}()
	for counter(s, "ts.blocked") == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	s.Out(context.Background(), "slow", 1)
	<-done
	if n := counter(s, "ts.blocked"); n != 1 {
		t.Fatalf("ts.blocked=%d want 1", n)
	}
	if w := s.Registry().Snapshot().Histograms["ts.wait"]; w.SumNanos < int64(5*time.Millisecond) {
		t.Fatalf("ts.wait sum=%dns, want >= 5ms of wait", w.SumNanos)
	}
}

func TestObserveMetricsAndTrace(t *testing.T) {
	s := New()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	s.Observe(reg, tr)

	ops := func(ctx context.Context) {
		s.Out(ctx, "m", 1)
		s.Out(ctx, "m", 2)
		s.Inp(ctx, "m", FormalInt)
		s.Rdp(ctx, "m", FormalInt)
		s.In(ctx, "m", FormalInt) // immediate
		blocked := reg.Counter("ts.blocked").Value()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Rd(ctx, "m", FormalInt) // blocks until the Out below
		}()
		for reg.Counter("ts.blocked").Value() == blocked {
			time.Sleep(time.Millisecond)
		}
		s.Out(ctx, "m", 3)
		<-done
		s.In(ctx, "m", FormalInt) // leave the space empty for the next run
	}
	ops(context.Background())

	snap := reg.Snapshot()
	want := map[string]int64{"ts.out": 3, "ts.inp": 1, "ts.rdp": 1, "ts.in": 2, "ts.rd": 1, "ts.blocked": 1}
	for name, n := range want {
		if snap.Counters[name] != n {
			t.Fatalf("%s=%d want %d (all: %v)", name, snap.Counters[name], n, snap.Counters)
		}
	}
	if snap.Gauges["ts.tuples"] != int64(slen(s)) {
		t.Fatalf("ts.tuples=%d want %d", snap.Gauges["ts.tuples"], slen(s))
	}
	if snap.Histograms["ts.wait"].Count != 1 {
		t.Fatalf("wait histogram %+v, want one observation", snap.Histograms["ts.wait"])
	}
	// Untraced operations leave no trace events. Traced ones are spans
	// in the caller's trace: every take and read, and the blocked Rd's
	// block; an Out stamps its tuple but is no span of its own.
	if n := tr.Total(); n != 0 {
		t.Fatalf("untraced ops recorded %d trace events, want 0", n)
	}
	root := tr.StartRoot("test", "root")
	ops(obs.ContextWith(context.Background(), root.Context()))
	var spans int
	for _, e := range tr.Events() {
		if e.Kind != "tuple" || e.Trace != root.Context().Trace || e.Span == 0 {
			t.Fatalf("event %s/%s is not a tuple span in the caller's trace: %+v", e.Kind, e.Name, e)
		}
		spans++
	}
	if spans != 6 {
		t.Fatalf("traced %d tuple spans, want 6 (inp, rdp, in, block, rd, in)", spans)
	}
}

func TestTupleString(t *testing.T) {
	tu := Tuple{"task", 3, 1.5}
	if got := tu.String(); got != `("task", 3, 1.5)` {
		t.Fatalf("String() = %s", got)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	s := New()
	const n = 200
	var wg sync.WaitGroup
	sum := make(chan int, n)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tu, err := s.In(context.Background(), "work", FormalInt)
				if err != nil {
					return
				}
				v := tu[1].(int)
				if v < 0 {
					return
				}
				sum <- v
			}
		}()
	}
	for i := 1; i <= n; i++ {
		s.Out(context.Background(), "work", i)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += <-sum
	}
	for w := 0; w < 4; w++ {
		s.Out(context.Background(), "work", -1) // poison
	}
	wg.Wait()
	if want := n * (n + 1) / 2; total != want {
		t.Fatalf("sum=%d want %d", total, want)
	}
}

// Property: any tuple outed is retrievable by a template made of
// formals of the same types, and by the tuple itself as all-actuals.
func TestPropertyOutThenInMatches(t *testing.T) {
	f := func(a int, b string, c float64, d bool) bool {
		s := New()
		s.Out(context.Background(), a, b, c, d)
		if _, ok, _ := s.Rdp(context.Background(), FormalInt, FormalString, FormalFloat, FormalBool); !ok {
			return false
		}
		tu, ok, _ := s.Inp(context.Background(), a, b, c, d)
		if !ok {
			return false
		}
		return tu[0].(int) == a && tu[1].(string) == b && tu[2].(float64) == c && tu[3].(bool) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of tuples is conserved: Outs minus successful
// Inps equals Len.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New()
		outs, takes := 0, 0
		for _, op := range ops {
			if op%3 == 0 {
				s.Out(context.Background(), "c", int(op))
				outs++
			} else {
				if _, ok, _ := s.Inp(context.Background(), "c", FormalInt); ok {
					takes++
				}
			}
		}
		return slen(s) == outs-takes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore is lossless for arbitrary int payloads.
func TestPropertySnapshotLossless(t *testing.T) {
	f := func(vals []int) bool {
		s := New()
		for _, v := range vals {
			s.Out(context.Background(), "p", v)
		}
		snap := s.Snapshot()
		s2 := New()
		if err := s2.Restore(snap); err != nil {
			return false
		}
		if slen(s2) != len(vals) {
			return false
		}
		for _, v := range vals {
			if _, ok, _ := s2.Inp(context.Background(), "p", v); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: one partition driven by random interleavings of Out, head
// take, actual-valued mid-partition take, transactional takes ending in
// Abort or Commit, and Snapshot behaves as a plain slice does — same
// contents, same order, so the same first match for every template —
// through growth, head advances, drains to empty and refills.
func TestPropertyPartitionMatchesSliceModel(t *testing.T) {
	ctx := context.Background()
	type item struct{ v, id int }
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		var model []item
		nextID := 0
		out := func() Tuple {
			it := item{rnd.Intn(6), nextID}
			nextID++
			model = append(model, it)
			return Tuple{"q", it.v, it.id}
		}
		// take removes the model's first match of a random template,
		// head (all formals) or mid-partition (actual v), and checks the
		// space's take against it.
		take := func(step int, inp func(...any) (Tuple, bool, error)) (item, bool) {
			v, at := any(FormalInt), 0
			if rnd.Intn(2) == 0 {
				want := rnd.Intn(6)
				v, at = want, slices.IndexFunc(model, func(it item) bool { return it.v == want })
			}
			got, ok, err := inp("q", v, FormalInt)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if at < 0 || at >= len(model) {
				if ok {
					t.Fatalf("seed %d step %d: took %v, model has no match for %v", seed, step, got, v)
				}
				return item{}, false
			}
			it := model[at]
			if !ok || got[1] != it.v || got[2] != it.id {
				t.Fatalf("seed %d step %d: template %v took %v (ok=%v), model's first match is %v at %d", seed, step, v, got, ok, it, at)
			}
			model = slices.Delete(model, at, at+1)
			return it, true
		}
		spaceInp := func(f ...any) (Tuple, bool, error) { return s.Inp(ctx, f...) }
		// grow biases the walk: the bag swells, then drains, by turns.
		for step, grow := 0, true; step < 4000; step++ {
			if step%500 == 0 {
				grow = !grow
			}
			switch op := rnd.Intn(10); {
			case op < 3 || (grow && op < 6):
				if err := s.Out(ctx, out()...); err != nil {
					t.Fatal(err)
				}
			case op < 8:
				take(step, spaceInp)
			case op == 8:
				tx, err := s.Begin()
				if err != nil {
					t.Fatal(err)
				}
				var taken []item
				for k := rnd.Intn(4); k >= 0; k-- {
					if it, ok := take(step, func(f ...any) (Tuple, bool, error) { return tx.Inp(ctx, f...) }); ok {
						taken = append(taken, it)
					}
				}
				if rnd.Intn(2) == 0 {
					// Abort republishes the takes at the tail, in take order.
					model = append(model, taken...)
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
				} else if err := tx.Commit(ctx, []Tuple{out(), out()}); err != nil {
					t.Fatal(err)
				}
			default:
				snap := s.Snapshot()
				if len(snap) != len(model) {
					t.Fatalf("seed %d step %d: snapshot holds %d tuples, model %d", seed, step, len(snap), len(model))
				}
				for i, it := range model {
					if snap[i][1] != it.v || snap[i][2] != it.id {
						t.Fatalf("seed %d step %d: snapshot[%d] = %v, model %v", seed, step, i, snap[i], it)
					}
				}
			}
			if slen(s) != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, slen(s), len(model))
			}
		}
		for step := 0; len(model) > 0; step++ { // drain in FIFO order
			if got, ok, _ := s.Inp(ctx, "q", FormalInt, FormalInt); !ok || got[2] != model[0].id {
				t.Fatalf("seed %d drain %d: took %v (ok=%v), model head %v", seed, step, got, ok, model[0])
			}
			model = model[1:]
		}
		if slen(s) != 0 {
			t.Fatalf("seed %d: %d tuples left after the drain", seed, slen(s))
		}
	}
}

func BenchmarkTaggedPartitionLookup(b *testing.B) {
	s := New()
	for i := 0; i < 64; i++ {
		s.Out(context.Background(), fmt.Sprintf("tag%d", i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rdp(context.Background(), "tag33", FormalInt)
	}
}
