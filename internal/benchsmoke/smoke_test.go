package benchsmoke

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	// The packages the benchmark is built on: importing them makes a
	// change to any of them invalidate this test's cached result.
	_ "freepdm/internal/cluster"
	_ "freepdm/internal/core"
	_ "freepdm/internal/durable"
	_ "freepdm/internal/mining/assoc"
	_ "freepdm/internal/mining/motif"
	_ "freepdm/internal/plinda"
	_ "freepdm/internal/tuplespace/storetest"
)

func TestBenchModule(t *testing.T) {
	// Reading the module's files puts them into the test cache's key.
	err := filepath.WalkDir("../bench", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "-count=1", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "../bench"
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go %v in internal/bench: %v\n%s", args, err, out)
		}
	}
}
