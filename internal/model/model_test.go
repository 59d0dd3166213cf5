package model

import "testing"

func TestOrderLexicographic(t *testing.T) {
	a := write{Sw: 1, Seq: 9, Item: 1}
	b := write{Sw: 2, Seq: 1, Item: 1}
	if !gte(b, a) || gte(a, b) {
		t.Fatal("switch number must dominate ordering")
	}
	if !gte(a, a) {
		t.Fatal("gte not reflexive")
	}
	if gt(a, a) {
		t.Fatal("gt not strict")
	}
	if !gte(a, bottom) {
		t.Fatal("bottom not minimal")
	}
}

func TestReadAheadHolds(t *testing.T) {
	res := Check(Config{
		DataItems: 2, Replicas: 2, Switches: 1,
		MaxWrites: 2, MaxReads: 2, ReadBehind: false,
	})
	if res.LimitHit {
		t.Fatal("state limit hit")
	}
	if res.Violation {
		t.Fatalf("read-ahead spec violated:\n%v", res.Trace)
	}
	if res.States < 100 {
		t.Fatalf("suspiciously small exploration: %d states", res.States)
	}
	t.Logf("read-ahead: %d states", res.States)
}

func TestReadBehindHolds(t *testing.T) {
	res := Check(Config{
		DataItems: 2, Replicas: 2, Switches: 1,
		MaxWrites: 2, MaxReads: 2, ReadBehind: true,
	})
	if res.LimitHit {
		t.Fatal("state limit hit")
	}
	if res.Violation {
		t.Fatalf("read-behind spec violated:\n%v", res.Trace)
	}
	t.Logf("read-behind: %d states", res.States)
}

func TestFailoverHolds(t *testing.T) {
	for _, rb := range []bool{false, true} {
		res := Check(Config{
			DataItems: 1, Replicas: 2, Switches: 2,
			MaxWrites: 2, MaxReads: 2, ReadBehind: rb,
		})
		if res.LimitHit {
			t.Fatalf("state limit hit (readBehind=%v)", rb)
		}
		if res.Violation {
			t.Fatalf("failover spec violated (readBehind=%v):\n%v", rb, res.Trace)
		}
		t.Logf("failover readBehind=%v: %d states", rb, res.States)
	}
}

func TestThreeReplicasHold(t *testing.T) {
	res := Check(Config{
		DataItems: 1, Replicas: 3, Switches: 1,
		MaxWrites: 2, MaxReads: 2, ReadBehind: true,
	})
	if res.Violation || res.LimitHit {
		t.Fatalf("3-replica check failed: %+v", res)
	}
}

// --- mutation tests: the checker must catch seeded protocol bugs ---

func TestMutationSkipCommitCheckReadBehind(t *testing.T) {
	res := Check(Config{
		DataItems: 1, Replicas: 2, Switches: 1,
		MaxWrites: 2, MaxReads: 2, ReadBehind: true,
		SkipCommitCheck: true,
	})
	if !res.Violation {
		t.Fatalf("read-behind without visibility check not caught (%d states)", res.States)
	}
	t.Logf("violation trace: %v", res.Trace)
}

func TestMutationSkipCommitCheckReadAhead(t *testing.T) {
	res := Check(Config{
		DataItems: 1, Replicas: 2, Switches: 1,
		MaxWrites: 2, MaxReads: 2, ReadBehind: false,
		SkipCommitCheck: true,
	})
	if !res.Violation {
		t.Fatalf("read-ahead without integrity check not caught (%d states)", res.States)
	}
}

func TestMutationSkipActiveSwitchCheck(t *testing.T) {
	// Reads from a stale switch incarnation accepted: read-behind
	// anomalies across failover (§5.3's motivation).
	res := Check(Config{
		DataItems: 1, Replicas: 2, Switches: 2,
		MaxWrites: 3, MaxReads: 2, ReadBehind: true,
		SkipActiveSwitchCheck: true,
	})
	if !res.Violation {
		t.Fatalf("stale-switch reads not caught (%d states)", res.States)
	}
}

func TestMutationSkipReadyGate(t *testing.T) {
	// A fresh switch serving fast reads before its first
	// WRITE-COMPLETION has an empty dirty set and a bottom
	// last-committed point; the §5.3 readiness gate is what prevents
	// this.
	res := Check(Config{
		DataItems: 1, Replicas: 2, Switches: 2,
		MaxWrites: 3, MaxReads: 2, ReadBehind: true,
		SkipReadyGate: true,
	})
	if !res.Violation {
		t.Fatalf("pre-ready fast reads not caught (%d states)", res.States)
	}
}

func TestStateLimit(t *testing.T) {
	res := Check(Config{
		DataItems: 2, Replicas: 3, Switches: 2,
		MaxWrites: 4, MaxReads: 4, ReadBehind: true,
		MaxStates: 1000,
	})
	if !res.LimitHit {
		t.Fatal("limit not reported")
	}
}

func TestTraceLeadsFromInit(t *testing.T) {
	res := Check(Config{
		DataItems: 1, Replicas: 2, Switches: 1,
		MaxWrites: 2, MaxReads: 2, ReadBehind: true,
		SkipCommitCheck: true,
	})
	if !res.Violation || len(res.Trace) < 2 {
		t.Fatalf("no usable trace: %+v", res)
	}
	if res.Trace[0] != "Init" {
		t.Fatalf("trace does not start at Init: %v", res.Trace)
	}
}

// BenchmarkModelChecker times one exhaustive check of the Appendix-B
// specification, read-behind, over one data item, two replicas and one
// switch (3 945 states).
func BenchmarkModelChecker(b *testing.B) {
	states := 0
	for i := 0; i < b.N; i++ {
		res := Check(Config{
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
