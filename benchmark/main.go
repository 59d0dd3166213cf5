// Command benchmark is the repository's benchmark: four named
// workloads driven through cluster.New / Preload / RunLoads as a user
// would, end-to-end metrics of the modelled rack (simulated time) and of
// the simulator (wall time), and a per-layer ledger from a traced run.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print its result as the last line (one of: "+workloadNames()+")")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "wall seconds one run measures for")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
		all      = flag.Bool("all", false, "run every workload, interleaved, three times over, plus one traced run each")
		outPath  = flag.String("out", "", "with -all: write the result as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two -all results: benchmark -compare A.json B.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()

	// One simulator thread plus a GC helper; more would only add
	// scheduling noise on a small box.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	switch {
	case *manifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *all:
		res := runAll(options{seed: *seed, seconds: *seconds, scale: 1})
		if *outPath != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
		if !res.correct() {
			os.Exit(1)
		}
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have: %s)", *name, workloadNames()))
		}
		opt := options{seed: *seed, seconds: *seconds, scale: 1}
		var out outcome
		var defs []metricDef
		if *traced != 0 {
			out, defs = measureLayers(w, opt), perLayerMetrics
		} else {
			out, defs = measureEndToEnd(w, opt), endToEndMetrics
		}
		printContext(os.Stdout, currentContext())
		printOutcome(os.Stdout, out, defs)
		// The result line: last on standard output.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted uint64                 `json:"attempted"`
			Failed    uint64                 `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{out.correct(), out.Attempted, out.Failed, out.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printOutcome prints every metric by name with its unit, direction,
// sample count and bound, then whatever failed.
func printOutcome(w *os.File, out outcome, defs []metricDef) {
	fmt.Fprintf(w, "workload %s  seed %d  repetitions %d  attempted %d  failed %d\n",
		out.Workload, out.Seed, out.Reps, out.Attempted, out.Failed)
	for _, d := range defs {
		m := out.Metrics[d.Name]
		line := fmt.Sprintf("  %-32s %14.6g %-6s %-6s", d.Name, m.Value, d.Unit, d.Better)
		switch h, isHost := out.Host[d.Name]; {
		case isHost:
			reported := "median"
			if d.fastest {
				reported = "max"
			}
			line += fmt.Sprintf(" host reported=%s n=%d median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g spread=%.3f bound=%.2f",
				reported, h.N, h.Median, h.Q1, h.Q3, h.Min, h.Max, h.spread(), d.Bound)
		case d.Bound > 0:
			line += fmt.Sprintf(" sim  n=%d (identical across repetitions) bound=%.2f", out.Reps, d.Bound)
		}
		fmt.Fprintln(w, line)
	}
	if len(out.Rungs) > 0 {
		fmt.Fprintln(w, "  open-loop ladder; latency runs from the scheduled issue time, which in simulated time is the issue time: the generator never runs late")
		for _, r := range out.Rungs {
			fmt.Fprintf(w, "    offered %5.1f Mop/s  completed %7.3f  mean %8.2f us  p99 %9.2f us (bucket bound %9.2f)  n=%d\n",
				r.OfferedMRPS, r.CompletedMRPS, r.MeanUs, r.P99Us, r.P99BucketUs, r.Samples)
		}
	}
	if _, ok := out.Metrics["sim_p99_us"]; ok {
		fmt.Fprintln(w, "  sim_p99_us is interpolated inside its histogram bucket; buckets grow x1.25, so the histogram's own p99 moves in 25% steps")
	}
	sort.Strings(out.Errors)
	for _, e := range out.Errors {
		fmt.Fprintln(w, "  FAILED:", e)
	}
}
