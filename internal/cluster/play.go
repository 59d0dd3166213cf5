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

// Step is one timed action; At counts from the Play call. Do runs in an
// engine event, so it may only call verbs that return at once (Start*,
// AddGroup, CrashSwitch, …), never ones that drive the simulation.
type Step struct {
	At   time.Duration
	Name string
	Do   func(*Cluster) error
}

// StepRecord is one fired step: name, simulated fire time, Do's result.
type StepRecord struct {
	Name string
	At   time.Duration
	Err  error
}

// Played is Play's outcome: one Report per load and the fired steps.
type Played struct {
	Reports []Report
	Log     []StepRecord
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
		timers[i] = c.eng.After(st.At, func() { p.Log = append(p.Log, StepRecord{st.Name, time.Duration(c.eng.Now()), st.Do(c)}) })
	}
	p.Reports = c.RunLoads(s.Loads)
	c.RunFor(s.Settle)
	for _, t := range timers {
		t.Stop()
	}
	return p
}
