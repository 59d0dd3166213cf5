package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// machineContext records where a set of numbers came from.
type machineContext struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_avg_1min"`
}

func currentContext() machineContext {
	ctx := machineContext{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		LoadAvg1:   -1,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				ctx.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				ctx.LoadAvg1 = v
			}
		}
	}
	return ctx
}

func printContext(w io.Writer, ctx machineContext) {
	fmt.Fprintf(w, "machine: nproc %d  GOMAXPROCS %d  %s  commit %s  load(1m) %.2f\n",
		ctx.NumCPU, ctx.GOMAXPROCS, ctx.GoVersion, ctx.Commit, ctx.LoadAvg1)
	if ctx.LoadAvg1 > 0.5*float64(ctx.NumCPU) {
		fmt.Fprintf(w, "WARNING: 1-minute load average %.2f is above half the %d CPUs; host metrics will be noisy\n",
			ctx.LoadAvg1, ctx.NumCPU)
	}
}

// setResult is a full set of runs: every workload, several untraced
// runs each and one traced run.
type setResult struct {
	Context   machineContext   `json:"context"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name string `json:"name"`
	// EndToEnd summarizes each metric over the set's untraced runs.
	EndToEnd map[string]metricSummary `json:"end_to_end"`
	PerLayer map[string]metricValue   `json:"per_layer"`
	Errors   []string                 `json:"errors,omitempty"`
}

type metricSummary struct {
	summary
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (r setResult) correct() bool {
	for _, w := range r.Workloads {
		if len(w.Errors) > 0 {
			return false
		}
	}
	return true
}

// sets is how many untraced runs of each workload a full set holds:
// five would not fit the time a set may take.
const sets = 3

// runAll runs every workload sets times, interleaved (A B C D A B C D
// …) so that machine drift does not land on one workload, then one
// traced run each.
func runAll(opt options) setResult {
	res := setResult{Context: currentContext(), Seed: opt.seed, Seconds: opt.seconds}
	printContext(os.Stdout, res.Context)
	samples := make([]map[string][]float64, len(workloads))
	res.Workloads = make([]workloadResult, len(workloads))
	for i, w := range workloads {
		samples[i] = make(map[string][]float64)
		res.Workloads[i].Name = w.name
	}
	for set := 0; set < sets; set++ {
		for i, w := range workloads {
			out := measureEndToEnd(w, opt)
			fmt.Printf("set %d/%d ", set+1, sets)
			printOutcome(os.Stdout, out, endToEndMetrics)
			for name, m := range out.Metrics {
				samples[i][name] = append(samples[i][name], m.Value)
			}
			res.Workloads[i].Errors = append(res.Workloads[i].Errors, out.Errors...)
		}
	}
	for i, w := range workloads {
		wr := &res.Workloads[i]
		wr.EndToEnd = make(map[string]metricSummary)
		for _, d := range endToEndMetrics {
			s := summarize(samples[i][d.Name])
			wr.EndToEnd[d.Name] = metricSummary{s, d.Unit, d.Better, d.Bound}
			if !d.host && s.Min != s.Max {
				wr.Errors = append(wr.Errors, fmt.Sprintf("not deterministic: %s ranges %v..%v over the set's runs of seed %d", d.Name, s.Min, s.Max, opt.seed))
			}
		}
		out := measureLayers(w, opt)
		fmt.Print("traced ")
		printOutcome(os.Stdout, out, perLayerMetrics)
		wr.PerLayer = out.Metrics
		wr.Errors = append(wr.Errors, out.Errors...)
	}
	fmt.Println("\nrun-to-run spread of the set (quartile distance / median):")
	for _, wr := range res.Workloads {
		for _, d := range endToEndMetrics {
			if m := wr.EndToEnd[d.Name]; d.host {
				fmt.Printf("  %-16s %-20s median %12.6g %-5s spread %.4f  bound %.2f  n=%d\n",
					wr.Name, d.Name, m.Median, m.Unit, m.spread(), m.Bound, m.N)
			}
		}
	}
	return res
}

func readSet(path string) (setResult, error) {
	var r setResult
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, for every end-to-end metric of every workload,
// both medians, the change and the bound. It reports false when any
// pair is worse by more than its bound.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(w, a, b), nil
}

// sameSeedBound is what -compare holds a simulated metric to when both
// sets ran the same seed. The manifest's bounds have to cover the
// variation from seed to seed; for one seed a simulated metric is
// deterministic, so any difference is a change to the model.
const sameSeedBound = 0.01

// verdict classifies B against A on one metric. worse is the change in
// the metric's bad direction, as a share of A's median.
func verdict(a, b metricSummary, bound float64) (worse float64, word string) {
	worse = (b.Median - a.Median) / a.Median
	if a.Better == higher && worse != 0 { // no "-0.00%" for equal medians
		worse = -worse
	}
	switch {
	case worse > bound:
		return worse, "REGRESSION"
	case a.spread() > bound || b.spread() > bound:
		// The runs of one side disagree among themselves by more than
		// the bound: "within the bound" would claim a resolution the
		// data does not have.
		return worse, "unresolved"
	case worse < -bound:
		return worse, "better"
	default:
		return worse, "unchanged"
	}
}

func compareSets(w io.Writer, a, b setResult) bool {
	ok := true
	sameSeed := a.Seed == b.Seed
	byName := make(map[string]workloadResult)
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, found := byName[wa.Name]
		if !found {
			fmt.Fprintf(w, "%-16s missing from B\n", wa.Name)
			ok = false
			continue
		}
		var compared int
		var differ []string
		for _, d := range endToEndMetrics {
			ma, inA := wa.EndToEnd[d.Name]
			mb, inB := wb.EndToEnd[d.Name]
			if !inA || !inB {
				fmt.Fprintf(w, "%-16s %-22s missing\n", wa.Name, d.Name)
				ok = false
				continue
			}
			bound := d.Bound
			if sameSeed && !d.host {
				bound = sameSeedBound
				compared++
				if ma.Median != mb.Median {
					differ = append(differ, d.Name)
				}
			}
			worse, word := verdict(ma, mb, bound)
			if word == "REGRESSION" {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				wa.Name, d.Name, ma.Median, mb.Median, 100*worse, 100*bound, word)
		}
		if sameSeed {
			// Two sets of one commit must agree on all of these bit for
			// bit; between two commits, this lists what the change moved.
			for _, d := range perLayerMetrics {
				if d.exact {
					compared++
					if wa.PerLayer[d.Name].Value != wb.PerLayer[d.Name].Value {
						differ = append(differ, fmt.Sprintf("%s (%v, %v)", d.Name, wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value))
					}
				}
			}
			fmt.Fprintf(w, "%-16s seed %d on both sides: %d of %d simulated metrics and exact counts differ", wa.Name, a.Seed, len(differ), compared)
			if len(differ) > 0 {
				fmt.Fprintf(w, ": %s", strings.Join(differ, ", "))
			}
			fmt.Fprintln(w)
		}
		if len(wa.Errors)+len(wb.Errors) > 0 {
			fmt.Fprintf(w, "%-16s a run failed its checks: A %d, B %d errors\n", wa.Name, len(wa.Errors), len(wb.Errors))
			ok = false
		}
	}
	if !sameSeed {
		fmt.Fprintf(w, "seeds differ (%d, %d): simulated metrics are held to the bounds that cover seed-to-seed variation, and exact counts are not compared\n", a.Seed, b.Seed)
	}
	return ok
}
