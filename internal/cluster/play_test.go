package cluster

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestPlaySemantics pins what Play promises: steps fire at call time +
// At, in slice order at equal At; a refused step lands in the log with
// its fire time and error; Settle runs after the loads; a step timed
// past the settle never fires, not even in a later run; and a script
// without steps reports exactly what RunLoads followed by RunFor does.
func TestPlaySemantics(t *testing.T) {
	cfg := Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, RecordHistory: true, Seed: 4}
	load := LoadSpec{Mode: Closed, Clients: 8, Duration: 6 * time.Millisecond, Warmup: time.Millisecond, WriteRatio: 0.2, Keys: 64}
	const settle = 3 * time.Millisecond

	c := New(cfg)
	c.RunFor(5 * time.Millisecond) // At counts from the call, not from time 0
	start := time.Duration(c.Engine().Now())
	ms := func(d time.Duration) time.Duration { return start + d }
	ok := func(*Cluster) error { return nil }
	refused := errors.New("refused")
	late := false
	p := c.Play(Script{
		Loads: []LoadSpec{load},
		Steps: []Step{
			{At: 2 * time.Millisecond, Name: "b", Do: ok},
			{At: time.Millisecond, Name: "a", Do: ok},
			{At: 2 * time.Millisecond, Name: "c", Do: func(*Cluster) error { return refused }},
			{At: 8 * time.Millisecond, Name: "settling", Do: ok},
			{At: time.Second, Name: "never", Do: func(*Cluster) error { late = true; return nil }},
		},
		Settle: settle,
	})
	want := []StepRecord{
		{Name: "a", At: ms(time.Millisecond)},
		{Name: "b", At: ms(2 * time.Millisecond)},
		{Name: "c", At: ms(2 * time.Millisecond), Err: refused},
		{Name: "settling", At: ms(8 * time.Millisecond)},
	}
	if !reflect.DeepEqual(p.Log, want) {
		t.Fatalf("step log %+v, want %+v", p.Log, want)
	}
	if err := p.Err(); !errors.Is(err, refused) || !strings.HasPrefix(err.Error(), "c at ") {
		t.Fatalf("Err() = %v, want the refused step named with its fire time", err)
	}
	if now, end := time.Duration(c.Engine().Now()), ms(load.Warmup+load.Duration+settle); now != end {
		t.Fatalf("Play returned at %v, want the end of the settle after the loads, %v", now, end)
	}
	c.RunFor(2 * time.Second)
	if late {
		t.Fatal("a step timed past the settle fired in a later run")
	}

	// No steps: the same reports, history and end time as the two calls
	// Play stands for.
	a, b := New(cfg), New(cfg)
	got := a.Play(Script{Loads: []LoadSpec{load, load}, Settle: settle})
	reps := b.RunLoads([]LoadSpec{load, load})
	b.RunFor(settle)
	if got.Log != nil || !reflect.DeepEqual(got.Reports, reps) || !reflect.DeepEqual(a.History(), b.History()) ||
		a.Engine().Now() != b.Engine().Now() {
		t.Fatal("Play without steps differs from RunLoads followed by RunFor")
	}
}
