package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestPlaySemantics pins what Play promises: steps fire at call time +
// At, in slice order at equal At; each is logged under its action
// printed as Go, with its fire time and error; the handoffs and elastic
// operations admitted steps started are kept in fire order, and a
// refused step keeps none; a Func runs its closure at fire time;
// Settle runs after the loads; a step timed past the settle never
// fires, not even in a later run; and a script without steps reports
// exactly what RunLoads followed by RunFor does.
func TestPlaySemantics(t *testing.T) {
	cfg := Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, RecordHistory: true, Seed: 4}
	load := LoadSpec{Mode: Closed, Clients: 8, Duration: 6 * time.Millisecond, Warmup: time.Millisecond, WriteRatio: 0.2, Keys: 64}
	const settle = 3 * time.Millisecond

	c := New(cfg)
	c.RunFor(5 * time.Millisecond) // At counts from the call, not from time 0
	start := time.Duration(c.Engine().Now())
	ms := func(d time.Duration) time.Duration { return start + d }
	g0, g1 := c.slotsOf(0), c.slotsOf(1)
	var firedAt time.Duration
	probe := Func{"probe", func(c *Cluster) error { firedAt = time.Duration(c.Engine().Now()); return nil }}
	refused := errors.New("refused")
	late := false
	p := c.Play(Script{
		Loads: []LoadSpec{load},
		Steps: []Step{
			{2 * time.Millisecond, Swap{g0[1:2], g1[:1]}},
			{time.Millisecond, Migrate{g0[:1], 2}},
			{2 * time.Millisecond, Func{"c", func(*Cluster) error { return refused }}},
			{2 * time.Millisecond, Migrate{g0[2:3], 99}},
			{3 * time.Millisecond, RemoveGroup{3}},
			{8 * time.Millisecond, probe},
			{time.Second, Func{"never", func(*Cluster) error { late = true; return nil }}},
		},
		Settle: settle,
	})
	want := []StepRecord{
		{fmt.Sprintf("cluster.Migrate{Slots:[]int{%d}, To:2}", g0[0]), ms(time.Millisecond), nil},
		{fmt.Sprintf("cluster.Swap{A:[]int{%d}, B:[]int{%d}}", g0[1], g1[0]), ms(2 * time.Millisecond), nil},
		{`cluster.Func{Name: "c"}`, ms(2 * time.Millisecond), refused},
		{fmt.Sprintf("cluster.Migrate{Slots:[]int{%d}, To:99}", g0[2]), ms(2 * time.Millisecond), p.Log[3].Err},
		{"cluster.RemoveGroup{G:3}", ms(3 * time.Millisecond), nil},
		{`cluster.Func{Name: "probe"}`, ms(8 * time.Millisecond), nil},
	}
	if !reflect.DeepEqual(p.Log, want) || want[3].Err == nil || firedAt != want[5].At {
		t.Fatalf("step log %+v, want %+v, the probe run at its fire time", p.Log, want)
	}
	if err := p.Err(); !errors.Is(err, refused) || !strings.HasPrefix(err.Error(), want[2].Name+" at ") {
		t.Fatalf("Err() = %v, want the refused step named with its fire time", err)
	}
	var got [][3]any
	for _, m := range p.Migrations {
		got = append(got, [3]any{m.Slots, m.From, m.To})
	}
	if want := [][3]any{{g0[:1], 0, 2}, {g0[1:2], 0, 1}, {g1[:1], 1, 0}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("handoffs %v, want the admitted ones in fire order %v", got, want)
	}
	if len(p.Reconfigs) != 1 || p.Reconfigs[0].Kind != "remove" || p.Reconfigs[0].Group != 3 {
		t.Fatalf("reconfigurations %+v, want the removal of group 3", p.Reconfigs)
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
	bare := a.Play(Script{Loads: []LoadSpec{load, load}, Settle: settle})
	reps := b.RunLoads([]LoadSpec{load, load})
	b.RunFor(settle)
	if bare.Log != nil || !reflect.DeepEqual(bare.Reports, reps) || !reflect.DeepEqual(a.History(), b.History()) ||
		a.Engine().Now() != b.Engine().Now() {
		t.Fatal("Play without steps differs from RunLoads followed by RunFor")
	}
}
