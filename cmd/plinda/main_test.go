package main

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"freepdm/internal/obs"
)

// TestValidateWALFlags pins the durability-flag contract: -fsync and
// -wal-batch are refused without -wal (dead configuration an operator
// would mistake for real durability), and -wal-batch rejects negatives.
func TestValidateWALFlags(t *testing.T) {
	cases := []struct {
		name     string
		walDir   string
		fsync    bool
		walBatch int
		wantErr  bool
	}{
		{name: "defaults", wantErr: false},
		{name: "wal alone", walDir: "d", wantErr: false},
		{name: "wal+fsync", walDir: "d", fsync: true, wantErr: false},
		{name: "wal+batch", walDir: "d", walBatch: 64, wantErr: false},
		{name: "fsync without wal", fsync: true, wantErr: true},
		{name: "batch without wal", walBatch: 8, wantErr: true},
		{name: "negative batch", walDir: "d", walBatch: -1, wantErr: true},
	}
	for _, tc := range cases {
		err := validateWALFlags(tc.walDir, tc.fsync, tc.walBatch)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateWALFlags(%q, %v, %d) = %v, wantErr=%v",
				tc.name, tc.walDir, tc.fsync, tc.walBatch, err, tc.wantErr)
		}
	}
}

// TestParseChaosSpec pins the -chaos flag grammar: the documented
// keys parse into faultnet.StoreOptions, anything else is refused.
func TestParseChaosSpec(t *testing.T) {
	opts, err := parseChaosSpec("delay=5ms,err=0.25,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Delay != 5*time.Millisecond || opts.ErrRate != 0.25 || opts.Seed != 42 {
		t.Fatalf("parseChaosSpec = %+v", opts)
	}
	for _, bad := range []string{
		"delay", "delay=-1ms", "err=2", "err=x", "seed=abc", "rate=0.1",
	} {
		if _, err := parseChaosSpec(bad); err == nil {
			t.Errorf("parseChaosSpec(%q) accepted", bad)
		}
	}
}

// TestFsyncFlagBoot boots the binary with -wal -fsync -wal-batch and
// lets the demo run to completion: the full workload committing
// through the fsync group-commit pipeline, then a clean quit. It boots
// twice on one WAL directory, serving remote workers (-addr): the first
// run leaves its 16 extra poison bundles in the durable space, and the
// second must drain them at start-up — were they still there, or in a
// shape the drain's template does not match, its workers would take them
// at birth, exit, and the demo would never complete.
func TestFsyncFlagBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the plinda binary")
	}
	exe := filepath.Join(t.TempDir(), "plinda")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// An invalid combination must be refused before boot.
	if out, err := exec.Command(exe, "-fsync").CombinedOutput(); err == nil {
		t.Errorf("-fsync without -wal was accepted:\n%s", out)
	} else if !strings.Contains(string(out), "-fsync requires -wal") {
		t.Errorf("-fsync without -wal: unexpected output %q", out)
	}

	wal := filepath.Join(t.TempDir(), "wal")
	for boot, wantDrained := range []bool{false, true} {
		out := bootDemo(t, exe, "-wal", wal, "-fsync", "-wal-batch", "32", "-workers", "2", "-addr", "127.0.0.1:0")
		if drained := strings.Contains(out, "drained 16 stale poison tuples"); drained != wantDrained {
			t.Errorf("boot %d: drained the previous run's 16 poison bundles = %v, want %v:\n%s", boot, drained, wantDrained, out)
		}
	}
}

// bootDemo starts the binary, waits for the demo to finish (the prompt
// follows the summary), quits, and returns what it printed up to the
// summary; a zero exit proves the WAL closed cleanly.
func bootDemo(t *testing.T, exe string, args ...string) string {
	t.Helper()
	cmd := exec.Command(exe, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		stdin.Close()
		cmd.Process.Kill() //nolint:errcheck — cleanup for early Fatals
		cmd.Wait()         //nolint:errcheck
	}()
	done := make(chan string, 1)
	go func() {
		var seen strings.Builder
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			seen.WriteString(sc.Text() + "\n")
			if strings.Contains(sc.Text(), "motifs") {
				done <- seen.String()
				break
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck — keep the pipe drained
	}()
	var seen string
	select {
	case seen = <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("demo never completed (%v)", args)
	}
	if _, err := io.WriteString(stdin, "quit\n"); err != nil {
		t.Fatal(err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()
	select {
	case err := <-waitCh:
		if err != nil {
			t.Fatalf("plinda exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("plinda did not exit on quit")
	}
	return seen
}

// TestMetricsSmoke is the CI smoke check for the observability surface:
// it builds and boots the real plinda binary with a live debug
// endpoint, scrapes /metrics while the demo runs, and validates the
// exposition with the strict Prometheus text-format parser — per-shard
// gauge labels and histogram buckets included. The console must then
// shut down cleanly on "quit".
func TestMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the plinda binary")
	}
	exe := filepath.Join(t.TempDir(), "plinda")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(exe,
		"-debug-addr", "127.0.0.1:0", "-workers", "2",
		"-trace-sample", "1", "-slow-op", "1s", "-log-json", "info")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		stdin.Close()
		cmd.Process.Kill() //nolint:errcheck — cleanup for early Fatals
		cmd.Wait()         //nolint:errcheck
	}()

	// The binary announces the resolved debug address on stdout.
	addrRe := regexp.MustCompile(`debug endpoints at http://([^/]+)/`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				break
			}
		}
		io.Copy(io.Discard, stdout) //nolint:errcheck — keep the pipe drained
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("binary never announced its debug address")
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if err := obs.CheckPrometheusText(strings.NewReader(string(body))); err != nil {
		t.Fatalf("/metrics failed the Prometheus text-format check: %v\n%s", err, body)
	}
	for _, want := range []string{
		`fpdm_ts_shard_tuples{shard="0"}`,
		"fpdm_plinda_txn_seconds_bucket{le=",
		"fpdm_trace_events_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The trace endpoint must serve JSON beside the Prometheus text.
	tresp, err := http.Get("http://" + addr + "/debug/trace?n=5")
	if err != nil {
		t.Fatal(err)
	}
	tbody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if !strings.Contains(string(tbody), `"total"`) {
		t.Errorf("/debug/trace response lacks totals: %s", tbody)
	}

	if _, err := io.WriteString(stdin, "quit\n"); err != nil {
		t.Fatal(err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()
	select {
	case err := <-waitCh:
		if err != nil {
			t.Fatalf("plinda exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("plinda did not exit on quit")
	}
}
