// harmonia-bench regenerates the paper's evaluation figures (§9) from
// the simulated testbed and prints the series as tab-separated tables.
//
// Usage:
//
//	harmonia-bench [-scale 1.0] [-fig all|5a|5b|6a|6b|7a|7b|7c|8|9a|9b|10|S|R|A|M|H|P|E|K|ablations]
//	               [-json dir] [-trace dir]
//	               [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -json, every figure run additionally writes a machine-readable
// BENCH_fig<name>.json snapshot (wall time, heap allocations, and the
// plotted series) into dir. The simulator's own speed is measured by
// the repository benchmark (benchmark/README.md), not here.
//
// With -trace, the control-plane-heavy figures (E, K) additionally dump
// their cluster's flight recorder as Chrome trace_event JSON
// (TRACE_fig<name>.json) into dir: slot migrations, rebalancer rounds
// and vetoes, hot-key promote/invalidate/refresh/demote cycles,
// topology epoch bumps, §5.3 agreements, and switch crashes on a
// timeline openable in chrome://tracing or ui.perfetto.dev.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"harmonia/internal/experiments"
)

// runners is the figure registry: names, titles, axis labels, and the
// experiment entry points. The -fig flag's usage string and its
// unknown-value error both enumerate this table, so the valid names —
// including the repo-grown S/R/A/M/H/P figures — are always
// discoverable from the CLI itself.
var runners = []struct {
	name, title, xlabel, ylabel string
	run                         func(experiments.Scale) []experiments.Series
}{
	{"5a", "Figure 5(a): latency vs throughput, read-only, 3 replicas",
		"throughput (MRPS)", "mean latency (ms)", experiments.Fig5a},
	{"5b", "Figure 5(b): latency vs throughput, write-only, 3 replicas",
		"throughput (MRPS)", "mean latency (ms)", experiments.Fig5b},
	{"6a", "Figure 6(a): read throughput vs write rate, 3 replicas",
		"write throughput (MRPS)", "read throughput (MRPS)", experiments.Fig6a},
	{"6b", "Figure 6(b): total throughput vs write ratio, 3 replicas",
		"write ratio (%)", "throughput (MRPS)", experiments.Fig6b},
	{"7a", "Figure 7(a): scalability, read-only workload",
		"replicas", "throughput (MRPS)",
		func(s experiments.Scale) []experiments.Series { return experiments.Fig7(s, 0) }},
	{"7b", "Figure 7(b): scalability, write-only workload",
		"replicas", "throughput (MRPS)",
		func(s experiments.Scale) []experiments.Series { return experiments.Fig7(s, 1) }},
	{"7c", "Figure 7(c): scalability, 5% writes",
		"replicas", "throughput (MRPS)",
		func(s experiments.Scale) []experiments.Series { return experiments.Fig7(s, 0.05) }},
	{"8", "Figure 8: throughput vs dirty-set hash-table slots (5% writes)",
		"slots", "throughput (MRPS)", experiments.Fig8},
	{"9a", "Figure 9(a): primary-backup family, reads vs write rate",
		"write throughput (MRPS)", "read throughput (MRPS)",
		func(s experiments.Scale) []experiments.Series { return experiments.Fig9(s, "pb") }},
	{"9b", "Figure 9(b): quorum family, reads vs write rate",
		"write throughput (MRPS)", "read throughput (MRPS)",
		func(s experiments.Scale) []experiments.Series { return experiments.Fig9(s, "quorum") }},
	{"10", "Figure 10: throughput during switch stop/reactivate (ms, 1000:1 compressed)",
		"time (ms)", "throughput (MRPS)",
		func(s experiments.Scale) []experiments.Series {
			return []experiments.Series{experiments.Fig10(s)}
		}},
	{"S", "Figure S: aggregate throughput vs replica-group count (sharded, 5% writes, zipf-0.9)",
		"groups", "throughput (MRPS)", experiments.FigS},
	{"R", "Figure R: throughput while a pinned hot spot's slots migrate off the hot group (online rebalance)",
		"time (ms)", "throughput (MRPS)", experiments.FigR},
	{"A", "Figure A: autonomous rebalancer converging an unpinned zipf-1.2 hot spot (switch heat counters, no hints)",
		"time (ms)", "throughput (MRPS)", experiments.FigA},
	{"M", "Figure M: multi-switch rack scaling (2 groups/switch) and one-switch crash economics",
		"switches", "throughput (MRPS)", experiments.FigM},
	{"H", "Figure H: heterogeneous rack (CR×7 + 2×NOPaxos×3, weighted shards) vs the uniform misconfiguration",
		"group", "throughput (MRPS)", experiments.FigH},
	{"P", "Figure P: open-loop latency vs throughput, 4-switch weighted rack",
		"throughput (MRPS)", "latency (ms)", experiments.FigPerf},
	{"E", "Figure E: elastic scale-out 4→8 groups under open-loop load, then dead-switch reassignment",
		"time (ms)", "throughput (MRPS)", experiments.FigE},
	{"K", "Figure K: celebrity-key workload, auto-rebalance baseline vs per-key hot replication",
		"-", "aggregate throughput (MRPS)", experiments.FigK},
	{"ablations", "Ablations (README, CLI tools)",
		"-", "see series names",
		func(s experiments.Scale) []experiments.Series {
			var out []experiments.Series
			out = append(out, tag("eager-completions: ", experiments.AblationEagerCompletions(s))...)
			out = append(out, tag("lazy-cleanup: ", experiments.AblationLazyCleanup(s))...)
			out = append(out, tag("stages: ", experiments.AblationStages(s))...)
			return out
		}},
}

// figNames lists the registry's figure names in presentation order.
func figNames() []string {
	out := make([]string, len(runners))
	for i, r := range runners {
		out[i] = r.name
	}
	return out
}

// jsonSeries is the serialized form of one curve: points as [x, y]
// pairs.
type jsonSeries struct {
	Name   string       `json:"name"`
	Points [][2]float64 `json:"points"`
}

// benchSnapshot is the per-figure BENCH_fig<name>.json schema.
type benchSnapshot struct {
	Figure string  `json:"figure"`
	Title  string  `json:"title"`
	Scale  float64 `json:"scale"`
	// WallSeconds, Allocs, and AllocBytes cover the whole figure run:
	// the regeneration cost tracked PR over PR.
	WallSeconds float64      `json:"wall_seconds"`
	Allocs      uint64       `json:"allocs"`
	AllocBytes  uint64       `json:"alloc_bytes"`
	Series      []jsonSeries `json:"series"`
}

func main() {
	scale := flag.Float64("scale", 1.0, "measurement-window multiplier (lower = faster, noisier)")
	fig := flag.String("fig", "all", "figure to regenerate: one of "+strings.Join(figNames(), " ")+", or all")
	jsonDir := flag.String("json", "", "directory to write BENCH_fig<name>.json snapshots into")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceDir := flag.String("trace", "", "directory to dump control-plane flight-recorder timelines into (TRACE_fig<name>.json, Chrome trace_event format; figures E and K)")
	flag.Parse()
	s := experiments.Scale(*scale)
	experiments.TraceDir = *traceDir

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	found := false
	for _, r := range runners {
		if *fig != "all" && *fig != r.name {
			continue
		}
		found = true
		fmt.Printf("== %s ==\n", r.title)
		snap := benchSnapshot{Figure: r.name, Title: r.title, Scale: *scale}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		series := r.run(s)
		snap.WallSeconds = time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		snap.Allocs = m1.Mallocs - m0.Mallocs
		snap.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
		fmt.Printf("%-24s %16s %16s\n", "series", r.xlabel, r.ylabel)
		for _, sr := range series {
			js := jsonSeries{Name: sr.Name}
			for _, p := range sr.Points {
				fmt.Printf("%-24s %16.3f %16.3f\n", sr.Name, p.X, p.Y)
				js.Points = append(js.Points, [2]float64{p.X, p.Y})
			}
			snap.Series = append(snap.Series, js)
		}
		if *jsonDir != "" {
			if err := writeSnapshot(*jsonDir, snap); err != nil {
				fmt.Fprintf(os.Stderr, "json: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Println()
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown figure %q: available figures are %s, or all\n",
			*fig, strings.Join(figNames(), " "))
		os.Exit(2)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// writeSnapshot serializes one figure snapshot into dir.
func writeSnapshot(dir string, snap benchSnapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(filepath.Join(dir, "BENCH_fig"+snap.Figure+".json"), b, 0o644)
}

func tag(prefix string, ss []experiments.Series) []experiments.Series {
	for i := range ss {
		ss[i].Name = prefix + ss[i].Name
	}
	return ss
}
