package harmonia

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets runs go vet over benchmark/, a nested module
// (replace harmonia => ../) that this module's go test ./... never
// compiles, so a change to an internal package it imports fails here
// instead of only in the benchmark's own build. The module has no
// other dependency, so the go tool runs with the proxy and toolchain
// downloads switched off.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
