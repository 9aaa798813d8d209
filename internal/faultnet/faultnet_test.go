package faultnet

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// startEcho serves a TCP echo endpoint for proxy tests.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c) //nolint:errcheck — test echo
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func roundTrip(c net.Conn, msg string) (string, error) {
	if err := c.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return "", err
	}
	if _, err := c.Write([]byte(msg)); err != nil {
		return "", err
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func TestHitUnarmedIsNoop(t *testing.T) {
	if Armed() != 0 {
		t.Fatalf("Armed() = %d before any Arm", Armed())
	}
	if err := Hit("nobody.home", 1, "x"); err != nil {
		t.Fatalf("unarmed Hit returned %v", err)
	}
}

func TestArmDisarmAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	SetRegistry(reg)
	defer SetRegistry(nil)

	boom := errors.New("boom")
	var gotArgs []any
	disarm := Arm("test.point", func(args ...any) error {
		gotArgs = append([]any(nil), args...)
		return boom
	})
	if Armed() != 1 {
		t.Fatalf("Armed() = %d after Arm", Armed())
	}
	if err := Hit("test.point", 7, "ctx"); !errors.Is(err, boom) {
		t.Fatalf("armed Hit = %v, want boom", err)
	}
	if len(gotArgs) != 2 || gotArgs[0] != 7 || gotArgs[1] != "ctx" {
		t.Fatalf("handler args = %v", gotArgs)
	}
	if err := Hit("other.point"); err != nil {
		t.Fatalf("Hit on a different point = %v", err)
	}
	if v := reg.Counter("faultnet.hits.test.point").Value(); v != 1 {
		t.Fatalf("hit counter = %d, want 1", v)
	}
	disarm()
	disarm() // idempotent
	if Armed() != 0 {
		t.Fatalf("Armed() = %d after disarm", Armed())
	}
	if err := Hit("test.point"); err != nil {
		t.Fatalf("disarmed Hit = %v", err)
	}
}

func TestArmErrorAndReset(t *testing.T) {
	boom := errors.New("down")
	ArmError("a.b", boom)
	ArmError("c.d", boom)
	if Armed() != 2 {
		t.Fatalf("Armed() = %d", Armed())
	}
	Reset()
	if Armed() != 0 {
		t.Fatalf("Armed() = %d after Reset", Armed())
	}
	if err := Hit("a.b"); err != nil {
		t.Fatalf("Hit after Reset = %v", err)
	}
}

func TestProxyForwardsAndDelays(t *testing.T) {
	p, err := NewProxy(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	reg := obs.NewRegistry()
	p.Observe(reg)

	c := dialProxy(t, p)
	if got, err := roundTrip(c, "hello"); err != nil || got != "hello" {
		t.Fatalf("roundTrip = %q, %v", got, err)
	}

	p.Delay(ClientToServer, 60*time.Millisecond)
	start := time.Now()
	if got, err := roundTrip(c, "slow"); err != nil || got != "slow" {
		t.Fatalf("delayed roundTrip = %q, %v", got, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("delayed roundTrip took %v, want >= ~60ms", d)
	}
	p.Heal()
	if reg.Counter("faultnet.proxy.accepted").Value() != 1 {
		t.Fatalf("accepted counter = %d", reg.Counter("faultnet.proxy.accepted").Value())
	}
	if reg.Counter("faultnet.proxy.delayed_chunks").Value() == 0 {
		t.Fatal("delayed_chunks counter never moved")
	}
}

func TestProxyBlackholeSwallowsOneDirection(t *testing.T) {
	p, err := NewProxy(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	c := dialProxy(t, p)
	if _, err := roundTrip(c, "ok"); err != nil {
		t.Fatal(err)
	}
	p.Blackhole(ServerToClient, true)
	if err := c.SetDeadline(time.Now().Add(150 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("void")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded through a blackholed response direction")
	}
	// The connection survived the blackhole: healing restores traffic.
	p.Heal()
	if got, err := roundTrip(c, "back"); err != nil || got != "back" {
		t.Fatalf("post-heal roundTrip = %q, %v (conn should still be up)", got, err)
	}
}

func TestProxyPartitionAndHeal(t *testing.T) {
	p, err := NewProxy(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	c := dialProxy(t, p)
	if _, err := roundTrip(c, "pre"); err != nil {
		t.Fatal(err)
	}
	p.Partition()
	if _, err := roundTrip(c, "dead"); err == nil {
		t.Fatal("established connection survived a partition")
	}
	// New connections are refused while partitioned: the dial may
	// succeed (the listener is still up) but the session dies at once.
	if c2, err := net.DialTimeout("tcp", p.Addr(), time.Second); err == nil {
		if _, rerr := roundTrip(c2, "refused"); rerr == nil {
			t.Fatal("roundTrip succeeded through a partitioned proxy")
		}
		c2.Close()
	}
	p.Heal()
	c3 := dialProxy(t, p)
	if got, err := roundTrip(c3, "healed"); err != nil || got != "healed" {
		t.Fatalf("post-heal roundTrip = %q, %v", got, err)
	}
}

func TestProxyResetIdleSparesActive(t *testing.T) {
	p, err := NewProxy(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	idle := dialProxy(t, p)
	if _, err := roundTrip(idle, "once"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	active := dialProxy(t, p)
	if _, err := roundTrip(active, "busy"); err != nil {
		t.Fatal(err)
	}
	if n := p.ResetIdle(50 * time.Millisecond); n != 1 {
		t.Fatalf("ResetIdle killed %d conns, want 1 (the idle one)", n)
	}
	if _, err := roundTrip(active, "still"); err != nil {
		t.Fatalf("active conn was reset: %v", err)
	}
	if err := idle.SetDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle conn survived ResetIdle")
	}
}

func TestChaosStoreFaultPoints(t *testing.T) {
	ctx := context.Background()
	inner := tuplespace.New()
	s := WrapStore(inner, StoreOptions{})
	defer s.Close() //nolint:errcheck

	// .before: the operation never reaches the backend.
	disarm := ArmError("faultnet.store.out.before", ErrInjected)
	if err := s.Out(ctx, "t", 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("Out under before-fault = %v", err)
	}
	disarm()
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("before-fault leaked a tuple: Len = %d", n)
	}

	// .after: the operation happened, the reply is lost.
	disarm = ArmError("faultnet.store.out.after", ErrInjected)
	if err := s.Out(ctx, "t", 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("Out under after-fault = %v", err)
	}
	disarm()
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("after-fault should leave the tuple applied: Len = %d", n)
	}
	if tu, ok, err := s.Inp(ctx, "t", tuplespace.FormalInt); err != nil || !ok || tu[1] != 2 {
		t.Fatalf("Inp = %v, %v, %v", tu, ok, err)
	}
}

func TestChaosStoreErrRateDeterministic(t *testing.T) {
	ctx := context.Background()
	s := WrapStore(tuplespace.New(), StoreOptions{ErrRate: 0.5, Seed: 42})
	defer s.Close() //nolint:errcheck
	failures := 0
	for i := 0; i < 100; i++ {
		if err := s.Out(ctx, "coin", i); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			failures++
		}
	}
	if failures == 0 || failures == 100 {
		t.Fatalf("ErrRate 0.5 produced %d/100 failures", failures)
	}
	// Same seed, same coin flips.
	s2 := WrapStore(tuplespace.New(), StoreOptions{ErrRate: 0.5, Seed: 42})
	defer s2.Close() //nolint:errcheck
	failures2 := 0
	for i := 0; i < 100; i++ {
		if err := s2.Out(ctx, "coin", i); err != nil {
			failures2++
		}
	}
	if failures != failures2 {
		t.Fatalf("same seed diverged: %d vs %d failures", failures, failures2)
	}
}

func TestChaosStoreTxnPassthrough(t *testing.T) {
	ctx := context.Background()
	s := WrapStore(tuplespace.New(), StoreOptions{})
	defer s.Close() //nolint:errcheck
	if err := s.Out(ctx, "task", "a"); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.In(ctx, "task", tuplespace.FormalString); err != nil {
		t.Fatal(err)
	}
	disarm := ArmError("faultnet.store.txn.commit.before", ErrInjected)
	if err := tx.Commit(ctx, []tuplespace.Tuple{{"done", "a"}}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Commit under before-fault = %v", err)
	}
	disarm()
	// The inner transaction is still open (the fault fired before the
	// backend saw the commit); committing again succeeds.
	if err := tx.Commit(ctx, []tuplespace.Tuple{{"done", "a"}}); err != nil {
		t.Fatalf("retry Commit: %v", err)
	}
	if _, ok, err := s.Inp(ctx, "done", tuplespace.FormalString); err != nil || !ok {
		t.Fatalf("Inp(done) = ok=%v err=%v", ok, err)
	}
}
