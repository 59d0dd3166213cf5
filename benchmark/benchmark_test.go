package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"harmonia/internal/metrics"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4) from CPython.
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		s := summarize(c.data)
		got := [3]float64{s.Q1, s.Median, s.Q3}
		if got != c.want {
			t.Errorf("summarize(%v) quartiles = %v, want %v", c.data, got, c.want)
		}
		if s.N != len(c.data) {
			t.Errorf("summarize(%v).N = %d", c.data, s.N)
		}
	}
	if s := summarize([]float64{90, 100, 110, 100, 100}); s.Min != 90 || s.Max != 110 || s.spread() != 0.1 {
		t.Errorf("min/max/spread = %v/%v/%v, want 90/110/0.1", s.Min, s.Max, s.spread())
	}
	if s := summarize(nil); s.N != 0 || s.spread() != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestInterpolatedQuantile(t *testing.T) {
	h := metrics.NewHistogram()
	for i := 0; i < 900; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(800+i) * time.Microsecond)
	}
	if p50 := interpolatedQuantile(h, 0.5); p50 > 13*time.Microsecond {
		t.Errorf("p50 = %v, want inside the 10us bucket", p50)
	}
	p99, bucket := interpolatedQuantile(h, 0.99), h.Quantile(0.99)
	if p99 > bucket || p99 < bucket*4/5 {
		t.Errorf("p99 = %v, want inside the bucket ending at %v", p99, bucket)
	}
	// Moving samples across the rank moves the estimate, though the
	// bucket the rank falls in stays the same.
	before := interpolatedQuantile(h, 0.95)
	for i := 0; i < 200; i++ {
		h.Observe(10 * time.Microsecond)
	}
	if after := interpolatedQuantile(h, 0.95); after >= before {
		t.Errorf("p95 did not fall with more fast samples: %v then %v", before, after)
	}
	if interpolatedQuantile(metrics.NewHistogram(), 0.99) != 0 {
		t.Error("empty histogram should report 0")
	}
}

// protoBuf is a minimal protobuf writer for building a synthetic profile.
type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}
func (b *protoBuf) uintField(num int, v uint64) { b.varint(uint64(num)<<3 | 0); b.varint(v) }
func (b *protoBuf) bytesField(num int, data []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}
func (b *protoBuf) packed(num int, vs ...uint64) {
	var inner protoBuf
	for _, v := range vs {
		inner.varint(v)
	}
	b.bytesField(num, inner.Bytes())
}

// syntheticProfile encodes stacks (innermost first; a "+"-joined entry
// is one location with inlined frames, innermost first) with their
// sample counts, in pprof's wire format.
func syntheticProfile(t *testing.T, stacks [][]string, counts []uint64, compress bool) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	fnID := map[string]uint64{}
	var prof, funcs, locs protoBuf
	nextLoc := uint64(1)
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} { // sample_type
		var vt protoBuf
		vt.uintField(1, st[0])
		vt.uintField(2, st[1])
		prof.bytesField(1, vt.Bytes())
	}
	for si, stack := range stacks {
		var locIDs []uint64
		for _, entry := range stack {
			var loc protoBuf
			loc.uintField(1, nextLoc)
			loc.uintField(3, 0x1000+nextLoc) // address: skipped by the decoder
			for _, fn := range strings.Split(entry, "+") {
				if _, ok := fnID[fn]; !ok {
					strIdx[fn] = uint64(len(strs))
					strs = append(strs, fn)
					fnID[fn] = uint64(len(fnID) + 1)
					var f protoBuf
					f.uintField(1, fnID[fn])
					f.uintField(2, strIdx[fn])
					f.uintField(4, 0) // filename
					funcs.bytesField(5, f.Bytes())
				}
				var line protoBuf
				line.uintField(1, fnID[fn])
				line.uintField(2, 42)
				loc.bytesField(4, line.Bytes())
			}
			locs.bytesField(4, loc.Bytes())
			locIDs = append(locIDs, nextLoc)
			nextLoc++
		}
		var s protoBuf
		s.packed(1, locIDs...)
		s.packed(2, counts[si], counts[si]*4000000)
		prof.bytesField(2, s.Bytes())
	}
	prof.Write(locs.Bytes())
	prof.Write(funcs.Bytes())
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	prof.uintField(10, 4000000) // period: an unknown-to-us field after the tables
	if !compress {
		return prof.Bytes()
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestProfileDecodingAndAttribution(t *testing.T) {
	stacks := [][]string{
		// memmove under simnet's pop-front counts as simnet.
		{"runtime.memmove", "harmonia/internal/simnet.(*Node).complete", "harmonia/internal/sim.(*Engine).fire", "harmonia/internal/cluster.(*Cluster).RunLoads", "main.main"},
		// math.Pow under zeta, itself inlined into its caller, counts as workload.
		{"math.pow", "harmonia/internal/workload.zeta+harmonia/internal/workload.NewZipfian", "harmonia/internal/cluster.newZipfGen", "main.main"},
		// Sub-packages fold into their parent layer.
		{"harmonia/internal/protocol/vr.(*Replica).Recv", "harmonia/internal/simnet.(*Node).complete"},
		// The collector's own goroutines.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"},
		// Neither the program nor the collector.
		{"runtime.futex", "runtime.mcall"},
		// A package that is not a ledger layer.
		{"harmonia/internal/experiments.FigPerf", "main.main"},
		// Allocation under a program frame stays with the program.
		{"runtime.mallocgc", "runtime.gcAssistAlloc", "harmonia/internal/store.(*Store).Apply"},
	}
	counts := []uint64{40, 30, 10, 8, 2, 4, 6}
	for _, compress := range []bool{true, false} {
		samples, err := decodeProfile(syntheticProfile(t, stacks, counts, compress))
		if err != nil {
			t.Fatalf("decode (gzip %v): %v", compress, err)
		}
		if len(samples) != len(stacks) {
			t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
		}
		wantInlined := []string{"math.pow", "harmonia/internal/workload.zeta", "harmonia/internal/workload.NewZipfian", "harmonia/internal/cluster.newZipfGen", "main.main"}
		if !reflect.DeepEqual(samples[1].stack, wantInlined) {
			t.Errorf("inlined stack = %v, want %v", samples[1].stack, wantInlined)
		}
		if samples[0].count != 40 {
			t.Errorf("sample count = %d, want the first value (samples), 40", samples[0].count)
		}
		shares := cpuShares(samples)
		want := map[string]float64{
			"simnet": 0.40, "workload": 0.30, "protocol": 0.10, layerGC: 0.08,
			layerUnattributed: 0.06, "store": 0.06,
		}
		var sum float64
		for layer, share := range shares {
			sum += share
			if math.Abs(share-want[layer]) > 1e-12 {
				t.Errorf("share of %s = %v, want %v", layer, share, want[layer])
			}
		}
		if math.Abs(sum-1) > 1e-12 || len(shares) != len(want) {
			t.Errorf("shares %v sum to %v", shares, sum)
		}
	}
	if _, err := decodeProfile([]byte{0x12, 0x7f, 0x01}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestManifestMatchesTablesAndContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var onDisk, built any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fresh, &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, built) {
		t.Error("BENCHMARK.json differs from the benchmark's own tables; regenerate it with: benchmark -manifest > BENCHMARK.json")
	}

	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len([]rune(w.Why)) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len([]rune(w.Why)))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var setup bool
	for _, d := range m.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
		}
	}
	if !setup {
		t.Error("setup_s (unit s, better lower) missing from the end-to-end metrics")
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
		layer, _, _ := strings.Cut(d.Name, ".")
		known := layer == "runtime"
		for _, l := range layers {
			known = known || l == layer
		}
		if !known {
			t.Errorf("%s: %q is not a module of the program", d.Name, layer)
		}
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" || len(m.Command) > 32 {
		t.Errorf("paths %v, command %v", m.Paths, m.Command)
	}
}

func TestVerdicts(t *testing.T) {
	mk := func(median, q1, q3 float64, better string, bound float64) metricSummary {
		return metricSummary{summary{N: 5, Median: median, Q1: q1, Q3: q3}, "x", better, bound}
	}
	cases := []struct {
		a, b metricSummary
		want string
	}{
		{mk(100, 99, 101, higher, 0.08), mk(91, 90, 92, higher, 0.08), "REGRESSION"},
		{mk(100, 99, 101, higher, 0.08), mk(95, 94, 96, higher, 0.08), "unchanged"},
		{mk(100, 99, 101, higher, 0.08), mk(120, 119, 121, higher, 0.08), "better"},
		{mk(100, 99, 101, lower, 0.05), mk(106, 105, 107, lower, 0.05), "REGRESSION"},
		{mk(100, 99, 101, lower, 0.05), mk(90, 89, 91, lower, 0.05), "better"},
		// One side's own runs disagree by more than the bound.
		{mk(100, 90, 110, higher, 0.08), mk(101, 100, 102, higher, 0.08), "unresolved"},
		{mk(100, 99, 101, higher, 0.08), mk(99, 85, 105, higher, 0.08), "unresolved"},
		// A regression beyond the bound is one even when the runs are noisy.
		{mk(100, 90, 110, higher, 0.08), mk(80, 79, 81, higher, 0.08), "REGRESSION"},
	}
	for i, c := range cases {
		if _, got := verdict(c.a, c.b, c.a.Bound); got != c.want {
			t.Errorf("case %d: verdict = %s, want %s", i, got, c.want)
		}
	}

	// Sets whose host metrics read host and whose simulated metrics and
	// exact counts read sim.
	set := func(seed int64, host, sim float64) setResult {
		wr := workloadResult{Name: "w", EndToEnd: map[string]metricSummary{}, PerLayer: map[string]metricValue{}}
		for _, d := range endToEndMetrics {
			v := sim
			if d.host {
				v = host
			}
			wr.EndToEnd[d.Name] = metricSummary{summary{N: 3, Median: v, Q1: v, Q3: v}, d.Unit, d.Better, d.Bound}
		}
		for _, d := range perLayerMetrics {
			wr.PerLayer[d.Name] = metricValue{sim, d.Unit}
		}
		return setResult{Seed: seed, Workloads: []workloadResult{wr}}
	}
	var buf bytes.Buffer
	if !compareSets(&buf, set(1, 100, 100), set(1, 100, 100)) || !strings.Contains(buf.String(), "0 of") {
		t.Errorf("identical sets compare unequal:\n%s", buf.String())
	}
	if compareSets(&buf, set(1, 100, 100), set(1, 50, 100)) {
		t.Error("halved host metrics compare equal") // worse on host_ops_per_s
	}
	// 1.5% off on every simulated metric: inside the bound that covers
	// seed-to-seed variation, outside what one seed may move.
	line := func(out, metric string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, " "+metric+" ") {
				return l
			}
		}
		return ""
	}
	buf.Reset()
	compareSets(&buf, set(1, 100, 100), set(2, 100, 98.5))
	if l := line(buf.String(), "sim_throughput_mrps"); !strings.Contains(l, "unchanged") {
		t.Errorf("two seeds 1.5%% apart: %q", l)
	}
	buf.Reset()
	if compareSets(&buf, set(1, 100, 100), set(1, 100, 98.5)) {
		t.Error("sets of one seed 1.5% apart compare equal")
	}
	if l := line(buf.String(), "sim_throughput_mrps"); !strings.Contains(l, "REGRESSION") {
		t.Errorf("one seed 1.5%% apart: %q", l)
	}
	var exact int
	for _, d := range perLayerMetrics {
		if d.exact {
			exact++
			if !strings.Contains(buf.String(), d.Name+" (100, 98.5)") {
				t.Errorf("differing exact count %s not named:\n%s", d.Name, buf.String())
			}
		}
	}
	// The table marks what the run checks: the window's counters and the
	// protocol drivers' message counts.
	if want := len(counters{}.exact()) + len(driverProtocols); exact != want {
		t.Errorf("%d per-layer metrics marked exact, the run checks %d", exact, want)
	}
	for name := range (counters{}).exact() {
		for _, d := range perLayerMetrics {
			if d.Name == name && !d.exact {
				t.Errorf("%s is checked to repeat but not marked exact", name)
			}
		}
	}
}

func TestRepeatCheckNamesTheFirstDifference(t *testing.T) {
	a := repetition{sim: map[string]float64{"sim_mean_us": 1, "sim_p99_us": 2}, exact: map[string]float64{"sim.events_per_op": 3}}
	b := repetition{sim: map[string]float64{"sim_mean_us": 1, "sim_p99_us": 2}, exact: map[string]float64{"sim.events_per_op": 3}}
	if errs := checkRepeats(a, b, "repetition 1"); len(errs) != 0 {
		t.Fatalf("identical repetitions flagged: %v", errs)
	}
	b.sim["sim_p99_us"], b.sim["sim_mean_us"] = 2.5, 1.5
	errs := checkRepeats(a, b, "repetition 1")
	if len(errs) != 1 || !strings.Contains(errs[0], "sim_mean_us") {
		t.Fatalf("want one error naming sim_mean_us (first in name order), got %v", errs)
	}
}

// TestSmoke runs every workload once at a fraction of its size, both
// untraced and traced, and wants every named metric emitted and every
// check passed.
func TestSmoke(t *testing.T) {
	opt := options{seed: 1, seconds: 0, scale: 0.1}
	for _, w := range workloads {
		for _, mode := range []struct {
			name    string
			measure func(workload, options) outcome
			defs    []metricDef
		}{
			{"end_to_end", measureEndToEnd, endToEndMetrics},
			{"per_layer", measureLayers, perLayerMetrics},
		} {
			t.Run(w.name+"/"+mode.name, func(t *testing.T) {
				out := mode.measure(w, opt)
				for _, e := range out.Errors {
					t.Error(e)
				}
				if out.Attempted == 0 || (len(out.Errors) == 0) != (out.Failed == 0) {
					t.Errorf("attempted %d failed %d with %d errors", out.Attempted, out.Failed, len(out.Errors))
				}
				if len(out.Metrics) != len(mode.defs) {
					t.Errorf("%d metrics emitted, %d named", len(out.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					m, ok := out.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v (emitted %v)", d.Name, m, ok)
					}
					if d.Bound > 0 && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
				}
			})
		}
	}
}
