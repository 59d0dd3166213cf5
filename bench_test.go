// Benchmarks regenerating the paper's evaluation (one per figure plus
// the §6.2 resource calculation and the design ablations). Each
// benchmark runs the corresponding experiment at a reduced simulated
// window and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the whole evaluation. cmd/harmonia-bench runs the same
// experiments at full scale with the complete series.
package harmonia

import (
	"testing"

	"harmonia/internal/dataplane"
	"harmonia/internal/experiments"
	"harmonia/internal/model"
)

// benchScale keeps the full -bench=. sweep within a few minutes.
const benchScale experiments.Scale = 0.2

// lastPoint returns a series' final Y value.
func lastPoint(s experiments.Series) float64 {
	return s.Points[len(s.Points)-1].Y
}

func BenchmarkFig5aReadLatencyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig5a(benchScale)
		// Report the achieved throughput at the highest offered load.
		b.ReportMetric(maxAchieved(series[0]), "CR_MRPS")
		b.ReportMetric(maxAchieved(series[1]), "Harmonia_MRPS")
	}
}

func BenchmarkFig5bWriteLatencyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig5b(benchScale)
		b.ReportMetric(maxAchieved(series[0]), "CR_MRPS")
		b.ReportMetric(maxAchieved(series[1]), "Harmonia_MRPS")
	}
}

func maxAchieved(s experiments.Series) float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.X > m {
			m = p.X
		}
	}
	return m
}

func BenchmarkFig6aReadVsWriteRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig6a(benchScale)
		b.ReportMetric(series[0].Points[0].Y, "CR_reads_at_low_writes_MRPS")
		b.ReportMetric(series[1].Points[0].Y, "Harmonia_reads_at_low_writes_MRPS")
	}
}

func BenchmarkFig6bThroughputVsWriteRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig6b(benchScale)
		b.ReportMetric(series[1].Points[0].Y, "Harmonia_readonly_MRPS")
		b.ReportMetric(lastPoint(series[1]), "Harmonia_writeonly_MRPS")
	}
}

func BenchmarkFig7aScalabilityReadOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig7(benchScale, 0)
		b.ReportMetric(lastPoint(series[0]), "CR_at_10_replicas_MRPS")
		b.ReportMetric(lastPoint(series[1]), "Harmonia_at_10_replicas_MRPS")
		b.ReportMetric(lastPoint(series[1])/lastPoint(series[0]), "speedup")
	}
}

func BenchmarkFig7bScalabilityWriteOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig7(benchScale, 1)
		b.ReportMetric(lastPoint(series[0]), "CR_at_10_replicas_MRPS")
		b.ReportMetric(lastPoint(series[1]), "Harmonia_at_10_replicas_MRPS")
	}
}

func BenchmarkFig7cScalabilityMixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig7(benchScale, 0.05)
		b.ReportMetric(lastPoint(series[1]), "Harmonia_at_10_replicas_MRPS")
		b.ReportMetric(lastPoint(series[1])/lastPoint(series[0]), "speedup")
	}
}

func BenchmarkFig8SwitchMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig8(benchScale)
		b.ReportMetric(series[0].Points[0].Y, "uniform_4slots_MRPS")
		b.ReportMetric(lastPoint(series[0]), "uniform_64Kslots_MRPS")
		b.ReportMetric(series[1].Points[0].Y, "zipf_4slots_MRPS")
		b.ReportMetric(lastPoint(series[1]), "zipf_64Kslots_MRPS")
	}
}

func BenchmarkFig9aPrimaryBackupFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig9(benchScale, "pb")
		for _, s := range series {
			b.ReportMetric(s.Points[0].Y, s.Name+"_reads_MRPS")
		}
	}
}

func BenchmarkFig9bQuorumFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig9(benchScale, "quorum")
		for _, s := range series {
			b.ReportMetric(s.Points[0].Y, s.Name+"_reads_MRPS")
		}
	}
}

func BenchmarkFig10SwitchFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Fig10(0.5)
		pre, minDuring, post := 0.0, 1e18, 0.0
		n := len(s.Points)
		for j, p := range s.Points {
			switch {
			case j < n/5:
				if p.Y > pre {
					pre = p.Y
				}
			case j < n/2:
				if p.Y < minDuring {
					minDuring = p.Y
				}
			default:
				if p.Y > post {
					post = p.Y
				}
			}
		}
		b.ReportMetric(pre, "pre_failure_MRPS")
		b.ReportMetric(minDuring, "outage_MRPS")
		b.ReportMetric(post, "recovered_MRPS")
	}
}

func BenchmarkResourceModel(b *testing.B) {
	r := dataplane.PaperExample()
	for i := 0; i < b.N; i++ {
		_ = r.TotalRate()
	}
	b.ReportMetric(r.WriteRate()/1e6, "write_MRPS")
	b.ReportMetric(r.TotalRate()/1e9, "total_BRPS")
	b.ReportMetric(r.MemoryBytes()/1e6, "memory_MB")
}

func BenchmarkAblationEagerCompletion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.AblationEagerCompletions(0.4)
		b.ReportMetric(s[0].Points[0].Y, "delayed_rejected_pct")
		b.ReportMetric(s[1].Points[0].Y, "eager_rejected_pct")
	}
}

func BenchmarkAblationNoCleanup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.AblationLazyCleanup(benchScale)
		b.ReportMetric(s[0].Points[0].Y, "cleanup_on_MRPS")
		b.ReportMetric(s[1].Points[0].Y, "cleanup_off_MRPS")
	}
}

func BenchmarkAblationStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.AblationStages(benchScale)
		b.ReportMetric(s[0].Points[0].Y, "one_stage_MRPS")
		b.ReportMetric(s[1].Points[0].Y, "three_stages_MRPS")
	}
}

// BenchmarkModelChecker exercises the Appendix-B specification check —
// not a paper figure, but the correctness-budget companion to the
// performance ones.
func BenchmarkModelChecker(b *testing.B) {
	states := 0
	for i := 0; i < b.N; i++ {
		res := model.Check(model.Config{
			DataItems: 1, Replicas: 2, Switches: 1,
			MaxWrites: 2, MaxReads: 2, ReadBehind: true,
		})
		if res.Violation {
			b.Fatal("spec violated")
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// Example-style smoke check that the headline ratio prints in bench
// output even under -bench=. -benchtime=1x.
func BenchmarkHeadline10x(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Fig7(benchScale, 0)
		cr, h := lastPoint(series[0]), lastPoint(series[1])
		if h < 4*cr {
			b.Fatalf("scaling regression: CR=%.2f Harmonia=%.2f", cr, h)
		}
		b.ReportMetric(h/cr, "x_speedup_at_10_replicas")
	}
}
