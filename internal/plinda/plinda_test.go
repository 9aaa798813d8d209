package plinda

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// TestVectorAddition reproduces the Persistent Linda vector-addition
// program of figures 2.6 and 2.7 of the dissertation: a master outs
// five task tuples and collects five results; slaves loop taking tasks.
func TestVectorAddition(t *testing.T) {
	srv := NewServer()
	defer srv.Close()

	const n, chunks = 100, 5
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = i
		b[i] = 2 * i
	}
	result := make([]int, n)

	slave := func(p *Proc) error {
		for {
			if err := p.Xstart(); err != nil {
				return err
			}
			tu, err := p.In("task", tuplespace.FormalInt, tuplespace.FormalInts, tuplespace.FormalInts)
			if err != nil {
				return err
			}
			which := tu[1].(int)
			if which < 0 { // poison task
				return p.Xcommit()
			}
			av, bv := tu[2].([]int), tu[3].([]int)
			sum := make([]int, len(av))
			for i := range av {
				sum[i] = av[i] + bv[i]
			}
			if err := p.Out("result", which, sum); err != nil {
				return err
			}
			if err := p.Xcommit(); err != nil {
				return err
			}
		}
	}

	master := func(p *Proc) error {
		tranNumber := 0
		if cont, ok := p.Xrecover(); ok {
			tranNumber = cont[0].(int)
		}
		if tranNumber == 0 {
			if err := p.Xstart(); err != nil {
				return err
			}
			for i := 0; i < chunks; i++ {
				lo, hi := i*n/chunks, (i+1)*n/chunks
				if err := p.Out("task", i, a[lo:hi], b[lo:hi]); err != nil {
					return err
				}
			}
			if err := p.Xcommit(1); err != nil {
				return err
			}
			tranNumber = 1
		}
		if tranNumber == 1 {
			if err := p.Xstart(); err != nil {
				return err
			}
			for i := 0; i < chunks; i++ {
				tu, err := p.In("result", i, tuplespace.FormalInts)
				if err != nil {
					return err
				}
				copy(result[i*n/chunks:], tu[2].([]int))
			}
			// Poison the slaves.
			for w := 0; w < 2; w++ {
				if err := p.Out("task", -1, []int(nil), []int(nil)); err != nil {
					return err
				}
			}
			if err := p.Xcommit(2); err != nil {
				return err
			}
		}
		return nil
	}

	for _, name := range []string{"slave1", "slave2"} {
		if err := srv.Spawn(name, slave); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Spawn("master", master); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitAll(); err != nil {
		t.Fatal(err)
	}
	for i := range result {
		if result[i] != 3*i {
			t.Fatalf("result[%d]=%d, want %d", i, result[i], 3*i)
		}
	}
}

func TestTransactionAbortRestoresTakenTuples(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	srv.Space().Out(context.Background(), "item", 1)
	srv.Space().Out(context.Background(), "item", 2)

	err := srv.Spawn("aborter", func(p *Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		if _, err := p.In("item", 1); err != nil {
			return err
		}
		if _, err := p.In("item", 2); err != nil {
			return err
		}
		if err := p.Out("derived", 3); err != nil {
			return err
		}
		p.Xabort()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait("aborter"); err != nil {
		t.Fatal(err)
	}
	if spaceLen(srv) != 2 {
		t.Fatalf("space has %d tuples, want the 2 restored items", spaceLen(srv))
	}
	if _, ok, _ := srv.Space().Inp(context.Background(), "derived", 3); ok {
		t.Fatal("aborted out leaked into the space")
	}
	if _, ok, _ := srv.Space().Inp(context.Background(), "item", 1); !ok {
		t.Fatal("(item,1) not restored")
	}
}

// A formal-first template names no partition, so every Store rejects
// it; the transaction's own buffer must refuse it the same way instead
// of matching a tuple the transaction has out'ed.
func TestProcBufferRejectsFormalFirstTemplate(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	err := srv.Spawn("crosser", func(p *Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		defer p.Xabort()
		if err := p.Out("task", "k"); err != nil {
			return err
		}
		ops := []struct {
			name string
			call func() error
		}{
			{"In", func() error { _, err := p.In(tuplespace.FormalString, tuplespace.FormalString); return err }},
			{"Inp", func() error { _, _, err := p.Inp(tuplespace.FormalString, tuplespace.FormalString); return err }},
			{"Rd", func() error { _, err := p.Rd(tuplespace.FormalString, tuplespace.FormalString); return err }},
			{"Rdp", func() error { _, _, err := p.Rdp(tuplespace.FormalString, tuplespace.FormalString); return err }},
		}
		for _, op := range ops {
			if err := op.call(); !errors.Is(err, tuplespace.ErrCrossTemplate) {
				t.Errorf("%s of a formal-first template = %v, want ErrCrossTemplate", op.name, err)
			}
		}
		if len(p.buffer) != 1 {
			t.Errorf("buffer holds %d tuples after the rejected ops, want the 1 out'ed", len(p.buffer))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait("crosser"); err != nil {
		t.Fatal(err)
	}
}

func TestTxnOutsInvisibleUntilCommit(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	committed := make(chan struct{})
	observedEarly := make(chan bool, 1)

	srv.Spawn("writer", func(p *Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		if err := p.Out("private", 7); err != nil {
			return err
		}
		// Let the observer look while the txn is still open.
		time.Sleep(30 * time.Millisecond)
		if err := p.Xcommit(); err != nil {
			return err
		}
		close(committed)
		return nil
	})
	go func() {
		time.Sleep(10 * time.Millisecond)
		_, ok, _ := srv.Space().Rdp(context.Background(), "private", 7)
		observedEarly <- ok
	}()
	if <-observedEarly {
		t.Fatal("uncommitted out was visible to another process")
	}
	<-committed
	if _, ok, _ := srv.Space().Rdp(context.Background(), "private", 7); !ok {
		t.Fatal("committed out not visible")
	}
	srv.Wait("writer")
}

func TestTxnCanConsumeOwnOuts(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	srv.Spawn("selfie", func(p *Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		if err := p.Out("mine", 5); err != nil {
			return err
		}
		tu, ok, err := p.Inp("mine", tuplespace.FormalInt)
		if err != nil || !ok || tu[1].(int) != 5 {
			t.Errorf("own out not readable in txn: %v %v %v", tu, ok, err)
		}
		return p.Xcommit()
	})
	if err := srv.Wait("selfie"); err != nil {
		t.Fatal(err)
	}
	if spaceLen(srv) != 0 {
		t.Fatalf("consumed own out still published: Len=%d", spaceLen(srv))
	}
}

// TestFailureRecovery is the heart of the PLinda guarantee (section
// 7.1.2): a process killed mid-transaction is re-spawned, the aborted
// transaction's effects vanish, and the continuation lets the new
// incarnation resume; the final state equals a failure-free run.
func TestFailureRecovery(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	for i := 0; i < 10; i++ {
		srv.Space().Out(context.Background(), "work", i)
	}
	var processed atomic.Int64
	holdingTxn := make(chan string, 1)

	worker := func(p *Proc) error {
		sum := 0
		if cont, ok := p.Xrecover(); ok {
			sum = cont[0].(int)
		}
		for {
			if err := p.Xstart(); err != nil {
				return err
			}
			tu, ok, err := p.Inp("work", tuplespace.FormalInt)
			if err != nil {
				return err
			}
			if !ok {
				if err := p.Xcommit(); err != nil {
					return err
				}
				if err := p.Xstart(); err != nil {
					return err
				}
				if err := p.Out("sum", sum); err != nil {
					return err
				}
				return p.Xcommit(sum)
			}
			if p.Incarnation() == 0 && tu[1].(int) == 5 {
				// Announce we are mid-transaction holding item 5, then
				// stall so the test can kill us before commit.
				select {
				case holdingTxn <- p.Name():
				default:
				}
				if _, err := p.In("never-matches", tuplespace.FormalInt); err != nil {
					return err // ErrKilled: the txn holding item 5 aborts
				}
				return errors.New("should have been killed")
			}
			sum += tu[1].(int)
			processed.Add(1)
			if err := p.Xcommit(sum); err != nil {
				if errors.Is(err, ErrKilled) {
					return err
				}
				return err
			}
		}
	}

	if err := srv.Spawn("w0", worker); err != nil {
		t.Fatal(err)
	}
	name := <-holdingTxn
	if err := srv.Kill(name); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait("w0"); err != nil {
		t.Fatal(err)
	}
	tu, ok, _ := srv.Space().Inp(context.Background(), "sum", tuplespace.FormalInt)
	if !ok {
		t.Fatal("no sum tuple")
	}
	if got := tu[1].(int); got != 45 {
		t.Fatalf("sum=%d, want 45 (no work lost or duplicated)", got)
	}
	if srv.Respawns() != 1 {
		t.Fatalf("respawns=%d, want 1", srv.Respawns())
	}
}

// TestRespawnKeepsSamplingDecision: a logical process is sampled once,
// at Spawn. One unsampled at spawn stays untraced through a respawn even
// when the sample rate has risen since; one sampled at spawn is traced
// from its first incarnation on, every incarnation in one trace.
func TestRespawnKeepsSamplingDecision(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	tracer := obs.NewTracer(256)
	srv.Observe(obs.NewRegistry(), tracer)

	// Incarnation 0 parks in In inside a transaction until it is killed;
	// incarnation 1 takes the go tuple and exits.
	parked := make(chan struct{}, 1)
	proc := func(p *Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		if p.Incarnation() == 0 {
			parked <- struct{}{}
		}
		if _, err := p.In("go", tuplespace.FormalInt); err != nil {
			return err
		}
		return p.Xcommit()
	}
	killAndFinish := func(name string, rateAtSpawn float64) {
		t.Helper()
		tracer.SetSampleRate(rateAtSpawn)
		if err := srv.Spawn(name, proc); err != nil {
			t.Fatal(err)
		}
		<-parked
		tracer.SetSampleRate(1)
		if err := srv.Kill(name); err != nil {
			t.Fatal(err)
		}
		srv.Space().Out(context.Background(), "go", 1)
		if err := srv.Wait(name); err != nil {
			t.Fatal(err)
		}
	}

	killAndFinish("unsampled", 0)
	if n := tracer.Total(); n != 0 {
		t.Fatalf("a process unsampled at spawn left %d trace events after its respawn: %+v", n, tracer.Events())
	}

	killAndFinish("sampled", 1)
	traces := map[obs.ID]bool{}
	incarnations := map[any]bool{}
	for _, e := range tracer.Events() {
		traces[e.Trace] = true
		if e.Kind == "proc" && e.Name == "incarnation" {
			incarnations[e.Attrs["incarnation"]] = true
		}
	}
	if len(traces) != 1 || !incarnations[0] || !incarnations[1] {
		t.Fatalf("sampled process: %d traces, incarnation spans %v; want 1 trace with incarnations 0 and 1", len(traces), incarnations)
	}
}

// TestRespawnLog pins the lifecycle records an operator reads to learn
// why a process respawned: each Kill writes one "process killed" record
// at WARN, and each respawn one "process respawned" record naming the
// process, its new incarnation and the kill as its cause.
func TestRespawnLog(t *testing.T) {
	var buf bytes.Buffer
	obs.SetDefault(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	defer obs.SetDefault(nil)
	srv := NewServer()
	defer srv.Close()

	// Incarnations 0 and 1 park in In until they are killed; incarnation
	// 2 exits.
	const kills = 2
	parked := make(chan struct{}, 1)
	if err := srv.Spawn("victim", func(p *Proc) error {
		if p.Incarnation() == kills {
			return nil
		}
		parked <- struct{}{}
		_, err := p.In("never", tuplespace.FormalInt)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kills; i++ {
		<-parked
		if err := srv.Kill("victim"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Wait("victim"); err != nil {
		t.Fatal(err)
	}
	srv.Close() // the exit record follows Wait; Close waits for it

	var killed, respawned []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not one JSON record: %v: %q", err, line)
		}
		if rec["proc"] != "victim" {
			continue
		}
		switch rec["msg"] {
		case "process killed":
			killed = append(killed, rec)
		case "process respawned":
			respawned = append(respawned, rec)
		}
	}
	if len(killed) != kills || len(respawned) != kills {
		t.Fatalf("%d kills wrote %d killed and %d respawned records, want %d each:\n%s",
			kills, len(killed), len(respawned), kills, buf.String())
	}
	for i := 0; i < kills; i++ {
		if k := killed[i]; k["level"] != "WARN" || k["incarnation"] != float64(i) {
			t.Errorf("killed record %d = %v, want level WARN, incarnation %d", i, k, i)
		}
		r := respawned[i]
		cause, _ := r["cause"].(string)
		if r["incarnation"] != float64(i+1) || !strings.Contains(cause, ErrKilled.Error()) {
			t.Errorf("respawned record %d = %v, want incarnation %d and a cause naming the kill", i, r, i+1)
		}
	}
}

func TestKillWhileBlockedCompensates(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	started := make(chan struct{})
	srv.Spawn("blocked", func(p *Proc) error {
		if p.Incarnation() == 0 {
			close(started)
			if _, err := p.In("never", tuplespace.FormalInt); err != nil {
				return err
			}
			return errors.New("unexpected match")
		}
		// Recovery incarnation: succeed immediately.
		return nil
	})
	<-started
	time.Sleep(10 * time.Millisecond)
	if err := srv.Kill("blocked"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait("blocked"); err != nil {
		t.Fatal(err)
	}
	// If the orphaned In later matches, the tuple must be re-outed.
	srv.Space().Out(context.Background(), "never", 1)
	time.Sleep(20 * time.Millisecond)
	if _, ok, _ := srv.Space().Rdp(context.Background(), "never", 1); !ok {
		t.Fatal("tuple consumed by a dead incarnation was not compensated")
	}
}

// TestStopIsTerminal pins the difference from Kill: a stopped process
// is withdrawn for good — no recovery incarnation runs, Wait returns
// its terminal error, and the take it sat in is compensated. Without
// this, a program whose processes depend on a failed peer for their
// exit condition (PLET workers on the master's poison) had no way out
// of a blocking In short of closing the whole server.
func TestStopIsTerminal(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	started := make(chan struct{})
	var incarnations atomic.Int32
	srv.Spawn("blocked", func(p *Proc) error {
		incarnations.Add(1)
		if p.Incarnation() == 0 {
			close(started)
		}
		_, err := p.In("never", tuplespace.FormalInt)
		return err
	})
	<-started
	time.Sleep(10 * time.Millisecond)
	if err := srv.Stop("blocked"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait("blocked"); err == nil {
		t.Fatal("a stopped process reported success")
	}
	if info := srv.Processes(); info[0].Status != Failed {
		t.Fatalf("status=%v, want FAILED", info[0].Status)
	}
	if n := incarnations.Load(); n != 1 {
		t.Fatalf("incarnations=%d, want 1 (Stop must not respawn)", n)
	}
	if err := srv.Stop("blocked"); err != nil {
		t.Fatalf("Stop on a terminated process: %v", err)
	}
	if err := srv.Stop("nonexistent"); err != ErrNoProcess {
		t.Fatalf("Stop on an unknown process: %v, want ErrNoProcess", err)
	}
}

func TestPanicTriggersRecovery(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	srv.Spawn("panicky", func(p *Proc) error {
		if p.Incarnation() == 0 {
			p.Xstart()
			p.Out("half-done", 1)
			panic("simulated bug on first workstation")
		}
		return p.Out("finished", p.Incarnation())
	})
	if err := srv.Wait("panicky"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := srv.Space().Rdp(context.Background(), "half-done", 1); ok {
		t.Fatal("aborted txn output visible after panic")
	}
	if _, ok, _ := srv.Space().Rdp(context.Background(), "finished", 1); !ok {
		t.Fatal("recovered incarnation did not run")
	}
}

func TestMaxRespawnsGivesUp(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	srv.Spawn("doomed", func(p *Proc) error {
		panic("always fails")
	})
	err := srv.Wait("doomed")
	if err == nil {
		t.Fatal("doomed process reported success")
	}
	info := srv.Processes()
	if info[0].Status != Failed {
		t.Fatalf("status=%v, want FAILED", info[0].Status)
	}
}

func TestSuspendResume(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	steps := make(chan int, 10)
	srv.Spawn("pausable", func(p *Proc) error {
		for i := 0; i < 3; i++ {
			if err := p.Out("step", i); err != nil {
				return err
			}
			steps <- i
		}
		return nil
	})
	<-steps
	srv.Suspend("pausable")
	// It may complete one in-flight op, but must eventually show
	// SUSPENDED unless already done; just verify resume lets it finish.
	srv.Resume("pausable")
	if err := srv.Wait("pausable"); err != nil {
		t.Fatal(err)
	}
	if spaceLen(srv) != 3 {
		t.Fatalf("Len=%d, want 3", spaceLen(srv))
	}
}

// contOf reads a process's continuation out of the process table.
func contOf(srv *Server, name string) (tuplespace.Tuple, bool) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	ps := srv.procs[name]
	return ps.continuation, ps.hasCont
}

// TestCheckpointRestore: a rollback restores the checkpointed space and
// continuations, and takes away a continuation committed after the
// checkpoint, whose process would otherwise resume past outs the
// rollback removed. A malformed checkpoint changes nothing.
func TestCheckpointRestore(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	ctx := context.Background()
	srv.Space().Out(ctx, "state", 42)
	srv.Spawn("committer", func(p *Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		return p.Xcommit("phase-2", 7)
	})
	if err := srv.Wait("committer"); err != nil {
		t.Fatal(err)
	}
	var buf, again bytes.Buffer
	if err := srv.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two checkpoints of the same state differ")
	}
	cp := buf.Bytes()

	// After the checkpoint a process commits an out and its first
	// continuation, and the server "fails": the space is trashed.
	srv.Spawn("late", func(p *Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		if err := p.Out("late-out", 1); err != nil {
			return err
		}
		return p.Xcommit("late-phase", 1)
	})
	if err := srv.Wait("late"); err != nil {
		t.Fatal(err)
	}
	srv.Space().Inp(ctx, "state", 42)
	srv.Space().Out(ctx, "garbage", 1)

	empty, _ := tuplespace.AppendWireTuples(nil, nil)
	unnamed, _ := tuplespace.AppendWireTuples(empty, []tuplespace.Tuple{{7, "phase"}})
	nameless, _ := tuplespace.AppendWireTuples(empty, []tuplespace.Tuple{{}})
	for name, bad := range map[string][]byte{
		"truncated":     cp[:len(cp)-1],
		"trailing byte": append(cp[:len(cp):len(cp)], 0),
		"int name":      unnamed,
		"no name":       nameless,
	} {
		if err := srv.RestoreCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Fatalf("%s checkpoint restored", name)
		}
		_, garbage, _ := srv.Space().Rdp(ctx, "garbage", 1)
		if _, late := contOf(srv, "late"); !garbage || !late {
			t.Fatalf("the %s checkpoint's failed restore changed the server", name)
		}
	}

	if err := srv.RestoreCheckpoint(bytes.NewReader(cp)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := srv.Space().Rdp(ctx, "state", 42); !ok {
		t.Fatal("state tuple not rolled back")
	}
	if _, ok, _ := srv.Space().Rdp(ctx, "garbage", 1); ok {
		t.Fatal("post-checkpoint garbage survived rollback")
	}
	if _, ok, _ := srv.Space().Rdp(ctx, "late-out", 1); ok {
		t.Fatal("an out committed after the checkpoint survived rollback")
	}
	if c, ok := contOf(srv, "committer"); !ok || len(c) != 2 || c[0] != "phase-2" || c[1] != 7 {
		t.Fatalf("committer's continuation after rollback: %v (%v), want [phase-2 7]", c, ok)
	}
	if c, ok := contOf(srv, "late"); ok {
		t.Fatalf("late keeps its post-checkpoint continuation %v after rollback", c)
	}
}

func TestProcEvalSpawnsWorkers(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	srv.Spawn("master", func(p *Proc) error {
		for i := 0; i < 3; i++ {
			name := []string{"wa", "wb", "wc"}[i]
			if err := p.ProcEval(name, func(w *Proc) error {
				return w.Out("hello", w.Name())
			}); err != nil {
				return err
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := p.In("hello", tuplespace.FormalString); err != nil {
				return err
			}
		}
		return nil
	})
	if err := srv.WaitAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateSpawnRejected(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	f := func(p *Proc) error { _, err := p.In("never", tuplespace.FormalInt); return err }
	if err := srv.Spawn("dup", f); err != nil {
		t.Fatal(err)
	}
	if err := srv.Spawn("dup", f); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestNestedTxnRejected(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	srv.Spawn("nester", func(p *Proc) error {
		if err := p.Xstart(); err != nil {
			return err
		}
		if err := p.Xstart(); err != errNestedTxn {
			t.Errorf("nested Xstart: %v", err)
		}
		return p.Xcommit()
	})
	srv.Wait("nester")
}

func TestCommitWithoutTxnRejected(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	srv.Spawn("bad", func(p *Proc) error {
		if err := p.Xcommit(); err != errCommitNoTxn {
			t.Errorf("Xcommit without Xstart: %v", err)
		}
		return nil
	})
	srv.Wait("bad")
}

func TestStatusString(t *testing.T) {
	if Dispatched.String() != "DISPATCHED" || FailureHandled.String() != "FAILURE HANDLED" {
		t.Fatal("status names wrong")
	}
}
