package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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

// TestValidateWALFlags pins the durability-flag contract: -fsync is
// refused without -wal (dead configuration an operator would mistake
// for real durability).
func TestValidateWALFlags(t *testing.T) {
	cases := []struct {
		name    string
		walDir  string
		fsync   bool
		wantErr bool
	}{
		{name: "defaults", wantErr: false},
		{name: "wal alone", walDir: "d", wantErr: false},
		{name: "wal+fsync", walDir: "d", fsync: true, wantErr: false},
		{name: "fsync without wal", fsync: true, wantErr: true},
	}
	for _, tc := range cases {
		err := validateWALFlags(tc.walDir, tc.fsync)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateWALFlags(%q, %v) = %v, wantErr=%v",
				tc.name, tc.walDir, tc.fsync, err, tc.wantErr)
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

// TestFsyncFlagBoot boots the binary with -wal -fsync and
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
	exe := buildPlinda(t)

	// An invalid combination must be refused before boot.
	if out, err := exec.Command(exe, "-fsync").CombinedOutput(); err == nil {
		t.Errorf("-fsync without -wal was accepted:\n%s", out)
	} else if !strings.Contains(string(out), "-fsync requires -wal") {
		t.Errorf("-fsync without -wal: unexpected output %q", out)
	}

	wal := filepath.Join(t.TempDir(), "wal")
	for boot, wantDrained := range []bool{false, true} {
		out := bootDemo(t, exe, "-wal", wal, "-fsync", "-workers", "2", "-addr", "127.0.0.1:0")
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
// endpoint, scrapes /debug/metrics while the demo runs until a
// transaction has committed, and decodes the registry snapshot: a
// per-shard tuple gauge and a transaction histogram with buckets and
// quantiles. Every line it logs to stderr under -log-json must be one
// JSON record. The console must then shut down cleanly on "quit".
func TestMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the plinda binary")
	}
	exe := buildPlinda(t)

	cmd := exec.Command(exe,
		"-debug-addr", "127.0.0.1:0", "-workers", "2",
		"-trace-sample", "1", "-log-json", "debug")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
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

	var snap obs.Snapshot
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/debug/metrics")
		if err != nil {
			t.Fatalf("scrape /debug/metrics: %v", err)
		}
		snap = obs.Snapshot{}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /debug/metrics: %v", err)
		}
		if snap.Histograms["plinda.txn"].Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no plinda.txn observation in /debug/metrics: %+v", snap.Histograms)
		}
	}
	if _, ok := snap.Gauges["ts.shard.0.tuples"]; !ok {
		t.Errorf("/debug/metrics has no ts.shard.0.tuples gauge: %v", snap.Gauges)
	}
	h := snap.Histograms["plinda.txn"]
	if len(h.Buckets) == 0 {
		t.Errorf("plinda.txn histogram has no buckets: %+v", h)
	}
	if h.P50Nanos <= 0 || h.P50Nanos > h.P95Nanos || h.P95Nanos > h.P99Nanos {
		t.Errorf("plinda.txn quantiles missing or unordered: %+v", h)
	}

	// The trace endpoint must serve its totals beside the metrics.
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

	spawned := 0
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stderr line is not one JSON record: %v: %q", err, line)
		}
		for _, k := range []string{"time", "level", "msg"} {
			if _, ok := rec[k]; !ok {
				t.Errorf("log record lacks %q: %q", k, line)
			}
		}
		if rec["msg"] == "process spawned" && rec["proc"] != nil {
			spawned++
		}
	}
	if spawned == 0 {
		t.Errorf("-log-json debug logged no \"process spawned\" record with its proc:\n%s", stderr.String())
	}
}

// TestLogJSONRejectsUnknownLevel pins -log-json's grammar: a level
// that log/slog does not name is a usage error, not a silent "info".
func TestLogJSONRejectsUnknownLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the plinda binary")
	}
	out, err := exec.Command(buildPlinda(t), "-log-json", "verbose").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-log-json verbose: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-log-json") {
		t.Errorf("-log-json verbose: output does not name the flag: %q", out)
	}
}

// buildPlinda builds the command into the test's temporary directory.
func buildPlinda(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "plinda")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}
