// Package storetest is the Store v2 conformance suite: one set of
// behavioural tests every TxnStore backend must pass, run by the
// backends' own test packages against the in-process space, the TCP
// client, the durable space and the cluster router. A program written
// against tuplespace.Store may be pointed at any backend, so the
// contract — ctx-first operations, destructive vs non-destructive
// takes, blocking semantics, cancellation, formal matching, cross
// templates, and transactional take/abort/commit — has to hold
// everywhere, not just where it happened to be implemented first.
package storetest

import (
	"context"
	"errors"
	"testing"
	"time"

	"freepdm/internal/tuplespace"
)

// Factory opens a fresh, empty store for one subtest. Implementations
// register any teardown with t.Cleanup; the suite never calls Close
// itself (some backends share a server across the store and the
// factory owns that lifecycle).
type Factory func(t *testing.T) tuplespace.TxnStore

// opDeadline bounds every blocking call the suite makes so a
// non-conforming backend fails the test instead of hanging it.
const opDeadline = 10 * time.Second

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	t.Cleanup(cancel)
	return ctx
}

// Run exercises the full conformance suite against stores opened by
// the factory.
func Run(t *testing.T, open Factory) {
	t.Run("OutInRoundTrip", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		if err := s.Out(ctx, "job", 7); err != nil {
			t.Fatalf("Out: %v", err)
		}
		tu, err := s.In(ctx, "job", tuplespace.FormalInt)
		if err != nil {
			t.Fatalf("In: %v", err)
		}
		if len(tu) != 2 || tu[0] != "job" || tu[1] != 7 {
			t.Fatalf("In returned %v, want [job 7]", tu)
		}
	})

	t.Run("OutNAndLen", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		batch := []tuplespace.Tuple{{"a", 1}, {"b", 2}, {"c", 3}}
		if err := s.OutN(ctx, batch); err != nil {
			t.Fatalf("OutN: %v", err)
		}
		n, err := s.Len()
		if err != nil {
			t.Fatalf("Len: %v", err)
		}
		if n != len(batch) {
			t.Fatalf("Len = %d, want %d", n, len(batch))
		}
	})

	t.Run("InpDestructive", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		if _, ok, err := s.Inp(ctx, "job", tuplespace.FormalInt); err != nil || ok {
			t.Fatalf("Inp on empty store = ok=%v err=%v, want miss", ok, err)
		}
		if err := s.Out(ctx, "job", 42); err != nil {
			t.Fatalf("Out: %v", err)
		}
		tu, ok, err := s.Inp(ctx, "job", tuplespace.FormalInt)
		if err != nil || !ok {
			t.Fatalf("Inp = ok=%v err=%v, want hit", ok, err)
		}
		if tu[1] != 42 {
			t.Fatalf("Inp returned %v, want [job 42]", tu)
		}
		if _, ok, _ := s.Inp(ctx, "job", tuplespace.FormalInt); ok { //nolint:errcheck — the hit is the assertion
			t.Fatal("Inp found the tuple twice: take was not destructive")
		}
	})

	t.Run("RdNonDestructive", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		if err := s.Out(ctx, "cfg", "fast"); err != nil {
			t.Fatalf("Out: %v", err)
		}
		for i := 0; i < 2; i++ {
			tu, err := s.Rd(ctx, "cfg", tuplespace.FormalString)
			if err != nil {
				t.Fatalf("Rd #%d: %v", i, err)
			}
			if tu[1] != "fast" {
				t.Fatalf("Rd #%d returned %v", i, tu)
			}
		}
		if _, ok, err := s.Inp(ctx, "cfg", tuplespace.FormalString); err != nil || !ok {
			t.Fatalf("Inp after Rd = ok=%v err=%v: Rd consumed the tuple", ok, err)
		}
	})

	t.Run("RdpPresentAbsent", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		if _, ok, err := s.Rdp(ctx, "cfg", tuplespace.FormalString); err != nil || ok {
			t.Fatalf("Rdp on empty store = ok=%v err=%v, want miss", ok, err)
		}
		if err := s.Out(ctx, "cfg", "slow"); err != nil {
			t.Fatalf("Out: %v", err)
		}
		tu, ok, err := s.Rdp(ctx, "cfg", tuplespace.FormalString)
		if err != nil || !ok {
			t.Fatalf("Rdp = ok=%v err=%v, want hit", ok, err)
		}
		if tu[1] != "slow" {
			t.Fatalf("Rdp returned %v", tu)
		}
		if _, ok, _ := s.Rdp(ctx, "cfg", tuplespace.FormalString); !ok { //nolint:errcheck — the hit is the assertion
			t.Fatal("second Rdp missed: Rdp consumed the tuple")
		}
	})

	t.Run("BlockingInUnblocksOnOut", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		errc := make(chan error, 1)
		go func() {
			time.Sleep(30 * time.Millisecond)
			errc <- s.Out(context.Background(), "late", 1)
		}()
		tu, err := s.In(ctx, "late", tuplespace.FormalInt)
		if err != nil {
			t.Fatalf("In: %v", err)
		}
		if tu[1] != 1 {
			t.Fatalf("In returned %v", tu)
		}
		if err := <-errc; err != nil {
			t.Fatalf("Out: %v", err)
		}
	})

	t.Run("BlockingRdUnblocksOnOut", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		go func() {
			time.Sleep(30 * time.Millisecond)
			s.Out(context.Background(), "sig", 9) //nolint:errcheck
		}()
		tu, err := s.Rd(ctx, "sig", tuplespace.FormalInt)
		if err != nil {
			t.Fatalf("Rd: %v", err)
		}
		if tu[1] != 9 {
			t.Fatalf("Rd returned %v", tu)
		}
	})

	t.Run("InHonorsCancel", func(t *testing.T) {
		s := open(t)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		// lint:ignore tuple-contract deliberately unproduced: the take must block until cancellation
		_, err := s.In(ctx, "never", tuplespace.FormalInt)
		if err == nil {
			t.Fatal("In on an empty store returned without error after cancellation")
		}
		if elapsed := time.Since(start); elapsed > opDeadline/2 {
			t.Fatalf("In took %v to observe cancellation", elapsed)
		}
	})

	t.Run("FormalTypeSelects", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		if err := s.Out(ctx, "k", 1); err != nil {
			t.Fatalf("Out: %v", err)
		}
		if err := s.Out(ctx, "k", "s"); err != nil {
			t.Fatalf("Out: %v", err)
		}
		tu, err := s.In(ctx, "k", tuplespace.FormalString)
		if err != nil {
			t.Fatalf("In: %v", err)
		}
		if tu[1] != "s" {
			t.Fatalf("In(FormalString) returned %v", tu)
		}
		tu, err = s.In(ctx, "k", tuplespace.FormalInt)
		if err != nil {
			t.Fatalf("In: %v", err)
		}
		if tu[1] != 1 {
			t.Fatalf("In(FormalInt) returned %v", tu)
		}
	})

	// A slice actual selects by value: the PLET poison is
	// ("task", [PoisonKey]) among ("task", keys) bundles, and a start-up
	// drain takes the one and must leave the others.
	t.Run("SliceActualSelectsByValue", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		for _, keys := range [][]string{{"a", "b"}, {"\x00poison"}, {"\x00poison", "a"}} {
			if err := s.Out(ctx, "task", keys); err != nil {
				t.Fatalf("Out: %v", err)
			}
		}
		if _, ok, err := s.Inp(ctx, "task", []string{"a"}); err != nil || ok {
			t.Fatalf("Inp of a prefix of a slice field = ok=%v err=%v, want miss", ok, err)
		}
		tu, ok, err := s.Inp(ctx, "task", []string{"\x00poison"})
		if err != nil || !ok {
			t.Fatalf("Inp = ok=%v err=%v, want hit", ok, err)
		}
		if keys, _ := tu[1].([]string); len(keys) != 1 || keys[0] != "\x00poison" {
			t.Fatalf("Inp returned %v, want the one-key slice", tu)
		}
		if _, ok, err := s.Inp(ctx, "task", []string{"\x00poison"}); err != nil || ok {
			t.Fatalf("second Inp = ok=%v err=%v, want miss", ok, err)
		}
		if n, err := s.Len(); err != nil || n != 2 {
			t.Fatalf("Len = %d (err %v), want the 2 other slices left", n, err)
		}
	})

	t.Run("CrossTemplate", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		if err := s.OutN(ctx, []tuplespace.Tuple{{"alpha", 1}, {"beta", 2}}); err != nil {
			t.Fatalf("OutN: %v", err)
		}
		// A formal-first template cannot be routed by tag: the store
		// must search everywhere (every shard, every node).
		// lint:ignore cross-shard the suite exercises the scatter path on purpose
		if _, ok, err := s.Rdp(ctx, tuplespace.FormalString, tuplespace.FormalInt); err != nil || !ok {
			t.Fatalf("cross Rdp = ok=%v err=%v, want hit", ok, err)
		}
		got := map[string]bool{}
		for i := 0; i < 2; i++ {
			// lint:ignore cross-shard the suite exercises the scatter path on purpose
			tu, ok, err := s.Inp(ctx, tuplespace.FormalString, tuplespace.FormalInt)
			if err != nil || !ok {
				t.Fatalf("cross Inp #%d = ok=%v err=%v, want hit", i, ok, err)
			}
			got[tu[0].(string)] = true
		}
		if !got["alpha"] || !got["beta"] {
			t.Fatalf("cross Inp drained %v, want both alpha and beta", got)
		}
		// lint:ignore cross-shard,tuple-errcheck deliberate scatter probe; the miss is the assertion
		if _, ok, _ := s.Inp(ctx, tuplespace.FormalString, tuplespace.FormalInt); ok {
			t.Fatal("cross Inp found a third tuple in a two-tuple store")
		}
	})

	t.Run("CrossBlockingIn", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		go func() {
			time.Sleep(30 * time.Millisecond)
			s.Out(context.Background(), "surprise", 3) //nolint:errcheck
		}()
		// lint:ignore cross-shard the suite exercises the scatter path on purpose
		tu, err := s.In(ctx, tuplespace.FormalString, tuplespace.FormalInt)
		if err != nil {
			t.Fatalf("cross In: %v", err)
		}
		if tu[0] != "surprise" || tu[1] != 3 {
			t.Fatalf("cross In returned %v", tu)
		}
	})

	t.Run("InTraced", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		if err := s.Out(ctx, "tr", 5); err != nil {
			t.Fatalf("Out: %v", err)
		}
		tu, _, err := s.InTraced(ctx, "tr", tuplespace.FormalInt)
		if err != nil {
			t.Fatalf("InTraced: %v", err)
		}
		if tu[1] != 5 {
			t.Fatalf("InTraced returned %v", tu)
		}
	})

	t.Run("TxnAbortRestoresTakes", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		if err := s.Out(ctx, "acct", 100); err != nil {
			t.Fatalf("Out: %v", err)
		}
		tx, err := s.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if _, err := tx.In(ctx, "acct", tuplespace.FormalInt); err != nil {
			t.Fatalf("txn In: %v", err)
		}
		// Tentative: the take is invisible to direct probes...
		if _, ok, _ := s.Inp(ctx, "acct", tuplespace.FormalInt); ok { //nolint:errcheck — the miss is the assertion
			t.Fatal("tuple visible outside the transaction while tentatively taken")
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		// ...and the abort puts it back.
		if _, ok, err := s.Inp(ctx, "acct", tuplespace.FormalInt); err != nil || !ok {
			t.Fatalf("Inp after abort = ok=%v err=%v: take was not restored", ok, err)
		}
	})

	t.Run("TxnCommitPublishesOuts", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		if err := s.Out(ctx, "task", "t1"); err != nil {
			t.Fatalf("Out: %v", err)
		}
		tx, err := s.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if _, err := tx.In(ctx, "task", tuplespace.FormalString); err != nil {
			t.Fatalf("txn In: %v", err)
		}
		if err := tx.Commit(ctx, []tuplespace.Tuple{{"done", "t1"}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if _, ok, _ := s.Inp(ctx, "task", tuplespace.FormalString); ok { //nolint:errcheck — the miss is the assertion
			t.Fatal("committed take reappeared")
		}
		if _, ok, err := s.Inp(ctx, "done", tuplespace.FormalString); err != nil || !ok {
			t.Fatalf("Inp(done) = ok=%v err=%v: committed out not published", ok, err)
		}
	})

	t.Run("TxnAbortDropsOuts", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		tx, err := s.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		if err := tx.Commit(ctx, []tuplespace.Tuple{{"ghost", 1}}); !errors.Is(err, tuplespace.ErrTxnFinished) {
			t.Fatalf("Commit after Abort = %v, want ErrTxnFinished", err)
		}
		if _, ok, _ := s.Inp(ctx, "ghost", tuplespace.FormalInt); ok { //nolint:errcheck — the miss is the assertion
			t.Fatal("outs of an aborted transaction were published")
		}
	})

	t.Run("TxnDoubleCommit", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		tx, err := s.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if err := tx.Commit(ctx, nil); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if err := tx.Commit(ctx, nil); !errors.Is(err, tuplespace.ErrTxnFinished) {
			t.Fatalf("second Commit = %v, want ErrTxnFinished", err)
		}
	})

	t.Run("TxnInpMissLeavesTxnUsable", func(t *testing.T) {
		s, ctx := open(t), testCtx(t)
		tx, err := s.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if _, ok, err := tx.Inp(ctx, "none", tuplespace.FormalInt); err != nil || ok {
			t.Fatalf("txn Inp on empty = ok=%v err=%v, want clean miss", ok, err)
		}
		if err := s.Out(ctx, "none", 8); err != nil {
			t.Fatalf("Out: %v", err)
		}
		tu, ok, err := tx.Inp(ctx, "none", tuplespace.FormalInt)
		if err != nil || !ok {
			t.Fatalf("txn Inp after Out = ok=%v err=%v, want hit", ok, err)
		}
		if tu[1] != 8 {
			t.Fatalf("txn Inp returned %v", tu)
		}
		if err := tx.Commit(ctx, nil); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	})
}
