package cluster

import (
	"errors"
	"fmt"
	"time"

	"harmonia/internal/sim"
)

// Script is one scripted run: loads offered together, timed steps fired
// while they run, and a settle period without load afterwards.
type Script struct {
	Loads  []LoadSpec
	Steps  []Step
	Settle time.Duration
}

// Step is one timed action; At counts from the Play call.
type Step struct {
	At time.Duration
	Do Action
}

// Action is what a step does: one plain struct per verb, so a script is
// data that prints as Go (%#v). It runs inside an engine event, so it
// starts only verbs that return at once, never one that drives the
// simulation. An action that starts a handoff or an elastic operation
// keeps its handle in Played.
type Action interface {
	start(c *Cluster, p *Played) error
}

type (
	// Migrate starts one handoff of Slots to group To.
	Migrate struct {
		Slots []int
		To    int
	}
	// Swap starts the two handoffs of StartSwapSlots.
	Swap struct{ A, B []int }
	// AddGroup adds a group of Spec and starts seeding it.
	AddGroup struct{ Spec GroupSpec }
	// RemoveGroup starts retiring group G.
	RemoveGroup struct{ G int }
	// RespecGroup starts replacing group G's members with Spec's.
	RespecGroup struct {
		G    int
		Spec GroupSpec
	}
	// ReassignSwitch starts rebuilding dead switch S's shard on the
	// survivors.
	ReassignSwitch struct{ S int }
	// CrashSwitch fails switch S.
	CrashSwitch struct{ S int }
	// ReactivateSwitch replaces the listed switches, or every one.
	ReactivateSwitch struct{ Switches []int }
	// CrashReplica crashes replica I of group G.
	CrashReplica struct{ G, I int }
	// Promote promotes Key onto the policy's holders.
	Promote struct{ Key string }
	// Demote demotes Key; a key that was not promoted is refused.
	Demote struct{ Key string }
	// Func is a named closure, for a step that reads state at its fire
	// time.
	Func struct {
		Name string
		Do   func(*Cluster) error
	}
)

func (a Migrate) start(c *Cluster, p *Played) error {
	m, err := c.StartBatchMigration(a.Slots, a.To)
	return p.keep(err, m)
}

func (a Swap) start(c *Cluster, p *Played) error {
	ma, mb, err := c.StartSwapSlots(a.A, a.B)
	return p.keep(err, ma, mb)
}

func (a AddGroup) start(c *Cluster, p *Played) error {
	_, rc, err := c.AddGroup(a.Spec)
	return p.keepReconfig(rc, err)
}

func (a RemoveGroup) start(c *Cluster, p *Played) error {
	return p.keepReconfig(c.StartRemoveGroup(a.G))
}

func (a RespecGroup) start(c *Cluster, p *Played) error {
	return p.keepReconfig(c.StartRespecGroup(a.G, a.Spec))
}

func (a ReassignSwitch) start(c *Cluster, p *Played) error {
	return p.keepReconfig(c.StartReassignDeadSwitch(a.S))
}

func (a ReactivateSwitch) start(c *Cluster, _ *Played) error {
	return c.ReactivateSwitch(a.Switches...)
}

func (a CrashSwitch) start(c *Cluster, _ *Played) error  { return c.CrashSwitch(a.S) }
func (a CrashReplica) start(c *Cluster, _ *Played) error { return c.CrashReplicaIn(a.G, a.I) }
func (a Promote) start(c *Cluster, _ *Played) error      { return c.PromoteKey(a.Key) }
func (a Func) start(c *Cluster, _ *Played) error         { return a.Do(c) }

func (a Demote) start(c *Cluster, _ *Played) error {
	if !c.DemoteKey(a.Key) {
		return fmt.Errorf("%s was not promoted", a.Key)
	}
	return nil
}

// GoString prints a Func by its name: its closure has no Go form.
func (a Func) GoString() string { return fmt.Sprintf("cluster.Func{Name: %q}", a.Name) }

// StepRecord is one fired step: the action printed as Go, its
// simulated fire time and its result.
type StepRecord struct {
	Name string
	At   time.Duration
	Err  error
}

// Played is Play's outcome: one Report per load, the fired steps, and
// the handoffs and elastic operations the admitted steps started, in
// fire order.
type Played struct {
	Reports    []Report
	Log        []StepRecord
	Migrations []*Migration
	Reconfigs  []*Reconfig
}

// keep records the handoffs an admitted step started; a refusal is the
// step's error.
func (p *Played) keep(err error, ms ...*Migration) error {
	if err == nil {
		p.Migrations = append(p.Migrations, ms...)
	}
	return err
}

// keepReconfig records the elastic operation an admitted step started.
func (p *Played) keepReconfig(rc *Reconfig, err error) error {
	if err == nil {
		p.Reconfigs = append(p.Reconfigs, rc)
	}
	return err
}

// Err joins the refused steps' errors, each named with its fire time.
func (p Played) Err() error {
	var errs []error
	for _, s := range p.Log {
		if s.Err != nil {
			errs = append(errs, fmt.Errorf("%s at %v: %w", s.Name, s.At, s.Err))
		}
	}
	return errors.Join(errs...)
}

// Play arms the steps in slice order (equal At fire in that order), runs
// the loads, then Settle. A step timed past the settle never fires.
func (c *Cluster) Play(s Script) Played {
	var p Played
	timers := make([]sim.Timer, len(s.Steps))
	for i, st := range s.Steps {
		timers[i] = c.eng.After(st.At, func() {
			err := st.Do.start(c, &p)
			p.Log = append(p.Log, StepRecord{fmt.Sprintf("%#v", st.Do), time.Duration(c.eng.Now()), err})
		})
	}
	p.Reports = c.RunLoads(s.Loads)
	c.RunFor(s.Settle)
	for _, t := range timers {
		t.Stop()
	}
	return p
}
