package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"harmonia/internal/rebalance"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// The chaos matrices share one shape: a recorded cluster whose
// client↔switch↔replica links the chaos mode degrades, a closed-loop
// load with handoffs, reconfigurations and faults played into it, a
// settle, and one check of everything those must leave behind
// (chaosRun.check).

const (
	chaosAt      = 4 * time.Millisecond           // a cell's handoff or reconfiguration starts
	chaosCrashAt = chaosAt + 200*time.Microsecond // a fault lands moments into it
)

// chaosRun is one matrix cell: its cluster, and the handoffs and
// elastic operations its steps started.
type chaosRun struct {
	*Cluster
	moves []*Migration
	recs  []*Reconfig
	land  bool // the cell exercises the flip: an aborted handoff fails it
}

// newChaosRun builds a recorded cluster from cfg with the link faults
// chaos names: "drops" loses 1% of packets, "reorder" holds 2% back by
// 30 µs. Every other mode is a step and leaves the links clean.
func newChaosRun(cfg Config, chaos string) *chaosRun {
	cfg.RecordHistory = true
	switch chaos {
	case "drops":
		cfg.DropProb = 0.01
	case "reorder":
		cfg.ReorderProb = 0.02
		cfg.ReorderDelay = 30 * time.Microsecond
	}
	return &chaosRun{Cluster: New(cfg)}
}

// chaosLoad is the matrices' closed loop: 30% writes over a key space
// small enough that every key sees a long history.
func chaosLoad(clients, keys int, dist Dist, warmup, d time.Duration) []LoadSpec {
	return []LoadSpec{{Mode: Closed, Clients: clients, Duration: d, Warmup: warmup, WriteRatio: 0.3, Keys: keys, Dist: dist}}
}

// move records a started handoff; a refusal is the step's error.
func (r *chaosRun) move(m *Migration, err error) error {
	if err == nil {
		r.moves = append(r.moves, m)
	}
	return err
}

// reconfig records a started elastic operation.
func (r *chaosRun) reconfig(rc *Reconfig, err error) error {
	if err == nil {
		r.recs = append(r.recs, rc)
	}
	return err
}

// crashStep crashes the last replica of group g at at: a backup or a
// follower, or a chain's tail, whose successor must then commit the
// writes it holds uncommitted.
func crashStep(at time.Duration, g int) Step {
	return Step{at, "CrashReplicaIn", func(c *Cluster) error { return c.CrashReplicaIn(g, c.groups[g].n-1) }}
}

// reassignSteps kills switch 1 for good at chaosAt and starts rebuilding
// its shard on the survivors.
func (r *chaosRun) reassignSteps() []Step {
	return []Step{
		{chaosAt, "CrashSwitch", func(c *Cluster) error { return c.CrashSwitch(1) }},
		{chaosAt, "StartReassignDeadSwitch", func(c *Cluster) error { return r.reconfig(c.StartReassignDeadSwitch(1)) }},
	}
}

// play plays s, every step of which must be admitted, and requires its
// load to have completed writes.
func (r *chaosRun) play(t *testing.T, s Script) {
	t.Helper()
	p := r.Play(s)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if rep := p.Reports[0]; rep.Ops == 0 || rep.Writes == 0 {
		t.Fatalf("no load completed: %+v", rep)
	}
}

// check holds what every cell must leave behind once it has settled:
// no handoff in flight and every started elastic operation finished
// cleanly; no slot frozen, and every slot routed to a live group
// hosted on the slot's switch, whose front-end owns the slot and is
// the only one that does; every started handoff landed (its slots
// route to its destination) or, unless the cell must land, aborted
// (they route back to its source); every packet reference the
// cluster's pool has out held by a replica (checkPackets); and the
// recorded history linearizable — the checker decides each key on its
// own, so this is every group's and every key's verdict at once.
func (r *chaosRun) check(t *testing.T) {
	t.Helper()
	checkPackets(t, r.Cluster)
	if n := len(r.migrations); n != 0 {
		t.Fatalf("%d slots still mid-handoff", n)
	}
	for _, rc := range r.recs {
		if !rc.Done() || rc.Err() != nil {
			t.Fatalf("%s of %d did not finish cleanly: done=%v err=%v", rc.Kind, rc.Group, rc.Done(), rc.Err())
		}
	}
	for slot, g := range r.SlotTable() {
		sw := r.rack.SwitchOfSlot(slot)
		if r.rack.Frozen(slot) || !r.rack.Live(g) || r.rack.SwitchOfGroup(g) != sw {
			t.Fatalf("slot %d (frozen %v) routed to group %d (live %v, on switch %d), served by switch %d",
				slot, r.rack.Frozen(slot), g, r.rack.Live(g), r.rack.SwitchOfGroup(g), sw)
		}
		for s := 0; s < r.Switches(); s++ {
			if r.FrontendOf(s).OwnsSlot(slot) != (s == sw) {
				t.Fatalf("slot %d served by switch %d, yet front-end %d owns it: %v", slot, sw, s, s != sw)
			}
		}
	}
	for _, m := range r.moves {
		want := m.To
		switch {
		case m.Aborted() && r.land:
			t.Fatalf("handoff of slots %v aborted (from %d to %d); the cell needs it to land", m.Slots, m.From, m.To)
		case m.Aborted():
			want = m.From
		case !m.Done():
			t.Fatalf("handoff of slots %v stuck (from %d to %d)", m.Slots, m.From, m.To)
		}
		for _, s := range m.Slots {
			if got := r.rack.RouteOf(s); got != want {
				t.Fatalf("handoff %d → %d (aborted %v): slot %d routes to %d", m.From, m.To, m.Aborted(), s, got)
			}
		}
	}
	if res := r.CheckLinearizability(); !res.Ok {
		t.Fatalf("history not linearizable: %+v", res)
	}
}

// checkPackets asserts the packet balance of a quiescent cluster: every
// reference out on its pool is one a replica holds — a current member,
// a crashed one or one of a replaced member set. A packet a crash, a
// drop or a handoff lost shows as the difference.
func checkPackets(t *testing.T, c *Cluster) {
	t.Helper()
	held := 0
	for _, r := range c.retired {
		held += r.HeldPackets()
	}
	for _, g := range c.groups {
		for _, r := range g.replicas {
			held += r.HeldPackets()
		}
	}
	if live := c.LivePackets(); live != held {
		t.Fatalf("%d packet references live, the replicas hold %d: %d leaked", live, held, live-held)
	}
}

// TestMigrateChaosMatrix is the migration hardening matrix: every
// replication protocol × a chaos mode (packet drops, reordering, or a
// source-group replica crash mid-handoff) × a handoff shape
// (single-slot, batch, two-way swap, or the rebalancer's own moves),
// each run in the middle of a live load window. Mid-run aborts are
// legal, lost slots are not. CRAQ rides along in every column (its
// drain signal works differently: write replies piggyback the
// completions that empty the dirty set), its crash cells included.
func TestMigrateChaosMatrix(t *testing.T) {
	t.Parallel()
	for _, p := range allProtocols() {
		for _, chaos := range []string{"drops", "reorder", "crash"} {
			for _, kind := range []string{"single", "batch", "swap", "auto"} {
				t.Run(fmt.Sprintf("%s/%s/%s", p, chaos, kind), func(t *testing.T) {
					t.Parallel()
					migrateChaosCase(t, p, chaos, kind)
				})
			}
		}
	}
}

func migrateChaosCase(t *testing.T, p Protocol, chaos, kind string) {
	cfg := Config{Protocol: p, Replicas: 3, UseHarmonia: p != CRAQ, Groups: 3, Seed: 33 + int64(p)*7}
	keys, dist := 96, Uniform
	if kind == "auto" {
		// Fig A's rack: the rebalancer, fed only by the switch's heat
		// registers, finds a zipf-1.2 head pinned onto group 0 and
		// spreads it on its own schedule.
		cfg.Groups, cfg.AutoRebalance = 4, true
		cfg.Rebalance = rebalance.Config{Threshold: 1.5, Hysteresis: 0.25, Interval: time.Millisecond, MaxSlotsPerRound: 8}
		keys, dist = 64, Zipf12
	}
	r := newChaosRun(cfg, chaos)
	g0 := slotsOwnedBy(r.Cluster, keys, 0)
	var steps []Step
	switch kind {
	case "single":
		for i, s := range takeSlots(t, g0, 2) {
			steps = append(steps, Step{chaosAt, "StartSlotMigration", func(c *Cluster) error { return r.move(c.StartSlotMigration(s, 1+i%2)) }})
		}
	case "batch":
		slots := takeSlots(t, g0, 3)
		steps = []Step{{chaosAt, "StartBatchMigration", func(c *Cluster) error { return r.move(c.StartBatchMigration(slots, 2)) }}}
	case "swap":
		a, b := takeSlots(t, g0, 2), takeSlots(t, slotsOwnedBy(r.Cluster, keys, 1), 2)
		steps = []Step{{chaosAt, "StartSwapSlots", func(c *Cluster) error {
			ma, mb, err := c.StartSwapSlots(a, b)
			if err == nil {
				r.moves = append(r.moves, ma, mb)
			}
			return err
		}}}
	case "auto":
		var hot []int
		for rank := 0; rank < 12; rank++ {
			if s := r.SlotOfKey(keyName(workload.ZipfKeyOfRank(keys, rank))); !slices.Contains(hot, s) {
				hot = append(hot, s)
			}
		}
		if err := r.MigrateSlots(hot, 0); err != nil {
			t.Fatalf("pinning the hot slots: %v", err)
		}
	}
	if chaos == "crash" {
		// A source-group replica fails while the drain is (or may
		// still be) in progress.
		steps = append(steps, crashStep(chaosCrashAt, 0))
	}
	r.play(t, Script{Loads: chaosLoad(12, keys, dist, 2*time.Millisecond, 10*time.Millisecond), Steps: steps, Settle: 25 * time.Millisecond})
	if kind == "auto" && r.Rebalances() == 0 {
		t.Fatal("the rebalancer moved no slot")
	}
	r.check(t)
}

// TestRackChaosMatrix is the rack hardening matrix: every replication
// protocol × a chaos mode (packet drops, reordering, a source-group
// replica crash, or a destination-switch crash + replacement
// mid-handoff) × a cross-switch handoff shape (single slot or batch),
// run in the middle of a live load window on a 2-switch rack; and Fig
// P's rack under its open-loop load.
func TestRackChaosMatrix(t *testing.T) {
	t.Parallel()
	for _, p := range allProtocols() {
		for _, chaos := range []string{"drops", "reorder", "crashreplica", "crashswitch"} {
			for _, kind := range []string{"single", "batch"} {
				t.Run(fmt.Sprintf("%s/%s/%s", p, chaos, kind), func(t *testing.T) {
					t.Parallel()
					rackChaosCase(t, p, chaos, kind)
				})
			}
		}
	}
	t.Run("weighted/drops/openloop", func(t *testing.T) {
		t.Parallel()
		rackOpenLoopCase(t)
	})
}

// rackOpenLoopCase is Fig P's weighted 4-switch rack — a 5-replica
// chain and two NOPaxos groups among 3-replica chains — under
// open-loop arrivals pinned to the data shards and 1% drops, with
// switch 1 crashed and replaced mid-load. Unlike a closed loop, the
// arrivals keep coming while the crashed shard answers nothing.
func rackOpenLoopCase(t *testing.T) {
	chain, nopaxos := GroupSpec{Protocol: Chain, Replicas: 3}, GroupSpec{Protocol: NOPaxos, Replicas: 3}
	r := newChaosRun(Config{UseHarmonia: true, Switches: 4, Seed: 317, GroupSpecs: []GroupSpec{
		{Protocol: Chain, Replicas: 5}, chain, nopaxos, chain, chain, nopaxos, chain, chain,
	}}, "drops")
	r.play(t, Script{
		Loads: []LoadSpec{{Mode: Open, Rate: 6e5, Duration: 12 * time.Millisecond, Warmup: 2 * time.Millisecond,
			WriteRatio: 0.3, Keys: 160, Dist: Uniform, PinGroups: true}},
		Steps: []Step{
			{chaosAt, "CrashSwitch", func(c *Cluster) error { return c.CrashSwitch(1) }},
			{7 * time.Millisecond, "ReactivateSwitch", func(c *Cluster) error { return c.ReactivateSwitch(1) }},
		},
		Settle: 25 * time.Millisecond,
	})
	r.check(t)
}

func rackChaosCase(t *testing.T, p Protocol, chaos, kind string) {
	r := newChaosRun(Config{Protocol: p, Replicas: 3, UseHarmonia: p != CRAQ, Groups: 4, Switches: 2, Seed: 43 + int64(p)*7}, chaos)
	const keys = 96
	dst := r.Rack().GroupsOf(1)[0] // destination on the other switch
	candidates := slotsOnSwitchOwnedBy(r.Cluster, keys, 0, 0)
	var steps []Step
	switch kind {
	case "single":
		s := takeSlots(t, candidates, 1)[0]
		steps = []Step{{chaosAt, "StartSlotMigration", func(c *Cluster) error { return r.move(c.StartSlotMigration(s, dst)) }}}
	case "batch":
		slots := takeSlots(t, candidates, 3)
		steps = []Step{{chaosAt, "StartBatchMigration", func(c *Cluster) error { return r.move(c.StartBatchMigration(slots, dst)) }}}
	}
	switch chaos {
	case "crashreplica":
		steps = append(steps, crashStep(chaosCrashAt, 0))
	case "crashswitch":
		// The DESTINATION switch crashes and is replaced mid-handoff:
		// its epoch domain reboots and re-runs the §5.3 agreement while
		// the slots are in flight toward it.
		steps = append(steps,
			Step{chaosCrashAt, "CrashSwitch", func(c *Cluster) error { return c.CrashSwitch(1) }},
			Step{6 * time.Millisecond, "ReactivateSwitch", func(c *Cluster) error { return c.ReactivateSwitch(1) }})
	}
	r.play(t, Script{Loads: chaosLoad(12, keys, Uniform, 2*time.Millisecond, 10*time.Millisecond), Steps: steps, Settle: 25 * time.Millisecond})
	r.check(t)
}

// TestElasticMigrateChaosMatrix is the elastic hardening matrix:
// every elastic operation × a chaos mode (packet drops, reordering, or
// a replica crash mid-reconfiguration), each run in the middle of a
// live recorded load window.
func TestElasticMigrateChaosMatrix(t *testing.T) {
	t.Parallel()
	for _, op := range []string{"add", "remove", "respec", "reassign"} {
		for _, chaos := range []string{"drops", "reorder", "crash"} {
			t.Run(fmt.Sprintf("%s/%s", op, chaos), func(t *testing.T) {
				t.Parallel()
				elasticChaosCase(t, op, chaos)
			})
		}
	}
}

func elasticChaosCase(t *testing.T, op, chaos string) {
	cfg := Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 47 + int64(len(op))*13}
	if op == "reassign" {
		cfg.Groups, cfg.Switches = 4, 2
	}
	r := newChaosRun(cfg, chaos)
	var steps []Step
	switch op {
	case "add":
		steps = []Step{{chaosAt, "AddGroup", func(c *Cluster) error {
			_, rc, err := c.AddGroup(GroupSpec{Protocol: Chain})
			return r.reconfig(rc, err)
		}}}
	case "remove":
		steps = []Step{{chaosAt, "StartRemoveGroup", func(c *Cluster) error { return r.reconfig(c.StartRemoveGroup(1)) }}}
	case "respec":
		steps = []Step{{chaosAt, "StartRespecGroup", func(c *Cluster) error {
			return r.reconfig(c.StartRespecGroup(1, GroupSpec{Protocol: Chain, Replicas: 5}))
		}}}
	case "reassign":
		steps = r.reassignSteps()
	}
	if chaos == "crash" {
		// A replica of an involved group fails while the drain or the
		// agreement is in flight — except for reassignment, where the
		// victims retire almost at once: there a victim's replica dies
		// BEFORE the switch, so recovery must max-merge around a store
		// that stopped early.
		switch op {
		case "add":
			steps = append(steps, crashStep(chaosCrashAt, 0)) // a seeding donor
		case "reassign":
			steps = append(steps, crashStep(3800*time.Microsecond, 2))
		default:
			steps = append(steps, crashStep(chaosCrashAt, 1))
		}
	}
	r.play(t, Script{Loads: chaosLoad(12, 96, Uniform, 2*time.Millisecond, 10*time.Millisecond), Steps: steps, Settle: 60 * time.Millisecond})
	counts := liveSlotCounts(t, r.Cluster)
	switch op {
	case "add":
		if !r.rack.Live(3) || counts[3] == 0 {
			t.Fatalf("added group live=%v slots=%v", r.rack.Live(3), counts)
		}
	case "remove":
		if r.rack.Live(1) || counts[1] != 0 {
			t.Fatalf("removed group live=%v slots=%d", r.rack.Live(1), counts[1])
		}
	case "respec":
		if r.groups[1].inc != 1 || r.groups[1].n != 5 {
			t.Fatalf("respec state: inc=%d n=%d", r.groups[1].inc, r.groups[1].n)
		}
	case "reassign":
		for slot := 0; slot < wire.NumSlots; slot++ {
			if r.rack.SwitchOfSlot(slot) == 1 {
				t.Fatalf("slot %d still on the dead switch", slot)
			}
		}
	}
	r.check(t)
}

// TestHotKeyChaosMatrix runs the promoted-key fast path through the
// failure modes that could each break it differently — packet drops
// (lost refresh completions), reordering, a holder replica crash, a
// concurrent migration of the key's home slot into a holder, and the
// elastic removal of a holder group, on clean links and (Fig K's
// 512-client celebrity load) under drops.
func TestHotKeyChaosMatrix(t *testing.T) {
	t.Parallel()
	for _, chaos := range []string{"drops", "reorder", "crash", "migrate", "remove", "remove/drops"} {
		t.Run(chaos, func(t *testing.T) {
			t.Parallel()
			hotKeyChaosCase(t, chaos)
		})
	}
}

func hotKeyChaosCase(t *testing.T, chaos string) {
	op, links, _ := strings.Cut(chaos, "/") // "remove/drops": the removal under lossy links
	r := newChaosRun(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, HotKeys: true, Seed: 61 + int64(len(chaos))}, cmp.Or(links, op))
	clients := 8
	if links != "" {
		clients = 512
	}
	const keys = 16
	r.Preload(keys)
	hot := keyName(workload.ZipfKeyOfRank(keys, 0))
	if err := r.PromoteKey(hot); err != nil {
		t.Fatalf("PromoteKey: %v", err)
	}
	st := r.hotKeys[wire.HashKey(hot)]
	holder := st.holders[0]
	var steps []Step
	switch op {
	case "crash":
		steps = []Step{crashStep(chaosAt, holder)}
	case "migrate":
		// The key's HOME slot moves into one of its holders while the
		// spread path is live: writes freeze and drain, holder copies
		// keep serving clean reads, and after the flip the round-robin
		// must skip the holder-turned-home.
		steps = []Step{{chaosAt, "StartBatchMigration", func(c *Cluster) error { return r.move(c.StartBatchMigration([]int{st.slot}, holder)) }}}
		r.land = true
	case "remove":
		steps = []Step{{chaosAt, "StartRemoveGroup", func(c *Cluster) error { return r.reconfig(c.StartRemoveGroup(holder)) }}}
	}
	r.play(t, Script{Loads: chaosLoad(clients, keys, Zipf12, 2*time.Millisecond, 8*time.Millisecond), Steps: steps, Settle: 60 * time.Millisecond})

	// With the chaos over and the last refresh landed, clean reads of
	// the hot key must spread again (under write-heavy chaos the entry
	// may have spent most of the run invalidated).
	cl := r.NewSyncClient()
	before := r.rack.Front(st.sw).Stats.SpreadReads
	for i := 0; i < 12; i++ {
		if _, found, err := cl.Get(hot); err != nil || !found {
			t.Fatalf("post-chaos Get #%d: found=%v err=%v", i, found, err)
		}
	}
	if r.rack.Front(st.sw).Stats.SpreadReads == before {
		t.Fatal("no reads were spread across the replicated set")
	}
	if op == "remove" {
		if r.rack.Live(holder) {
			t.Fatal("removed holder still live")
		}
		if hk, ok := r.KeyPromoted(hot); ok {
			for _, h := range hk.Holders {
				if int(h) == holder {
					t.Fatalf("retired group %d still in holder set %v", holder, hk.Holders)
				}
			}
		}
	}
	r.check(t)
}

// TestMigrateCrossProtocolSteadyStateMatrix runs the full 5×5
// protocol-pair matrix (source ≠ destination) with a heterogeneous
// steady-state topology: both protocols are first-class residents, and
// a populated slot migrates between them under 1% packet drops and
// live mixed load. This is the cross-protocol ExtractSlot/InstallSlot
// path as a steady state, not a transient.
func TestMigrateCrossProtocolSteadyStateMatrix(t *testing.T) {
	t.Parallel()
	for _, src := range allProtocols() {
		for _, dst := range allProtocols() {
			if src == dst {
				continue
			}
			t.Run(fmt.Sprintf("%s_to_%s", src, dst), func(t *testing.T) {
				t.Parallel()
				crossProtocolCase(t, Config{
					GroupSpecs: []GroupSpec{{Protocol: src, Replicas: 3}, {Protocol: dst, Replicas: 3}},
					Seed:       131 + int64(src)*11 + int64(dst)*3,
				}, "drops")
			})
		}
	}
	// Fig H's rack: a 7-replica chain in front of two NOPaxos groups.
	// A replica of the big group crashes just as its slot starts to
	// cross over, in the handoff's drain.
	for _, chaos := range []string{"drops", "reorder"} {
		t.Run("hetero/"+chaos, func(t *testing.T) {
			t.Parallel()
			crossProtocolCase(t, Config{GroupSpecs: []GroupSpec{
				{Protocol: Chain, Replicas: 7}, {Protocol: NOPaxos, Replicas: 3}, {Protocol: NOPaxos, Replicas: 3},
			}, Seed: 307}, chaos, crashStep(3*time.Millisecond, 0))
		})
	}
}

// crossProtocolCase moves a populated slot of group 0 to group 1 of
// cfg's rack mid-load, with the link faults chaos names; the extra
// steps fire alongside, those at the handoff's At just after it.
func crossProtocolCase(t *testing.T, cfg Config, chaos string, extra ...Step) {
	cfg.UseHarmonia = true
	r := newChaosRun(cfg, chaos)
	r.land = true
	const keys = 64
	cl := r.NewSyncClient()

	// Seed the keys of group 0's first slot holding two or more through
	// the protocol (in slot order: map order would make the cell's run
	// differ from one execution to the next).
	slots := keysInSlotOwnedBy(r.Cluster, keys, 0)
	var slot int
	var idxs []int
	for s := 0; s < wire.NumSlots && len(idxs) < 2; s++ {
		slot, idxs = s, slots[s]
	}
	if len(idxs) < 2 {
		t.Fatal("no slot with two keys found")
	}
	for _, i := range idxs {
		// nil values let the client encode its checkable value IDs —
		// explicit bytes would not mix with the recorded history.
		if err := cl.Set(keyName(i), nil); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}

	// The handoff crosses the protocol boundary while clients keep
	// hammering both groups.
	r.play(t, Script{
		Loads:  chaosLoad(10, keys, Uniform, time.Millisecond, 8*time.Millisecond),
		Steps:  append([]Step{{3 * time.Millisecond, "StartBatchMigration", func(c *Cluster) error { return r.move(c.StartBatchMigration([]int{slot}, 1)) }}}, extra...),
		Settle: 20 * time.Millisecond,
	})
	// The migrated keys live on (and write through) the destination
	// protocol, whose write-order guard imported sequence numbers did
	// not wedge.
	for _, i := range idxs {
		if _, ok, err := cl.Get(keyName(i)); err != nil || !ok {
			t.Fatalf("Get(%s) after cross-protocol handoff: %v %v", keyName(i), ok, err)
		}
		if g := cl.LastGroup(); g != 1 {
			t.Fatalf("key %s served by group %d, want 1", keyName(i), g)
		}
		if err := cl.Set(keyName(i), nil); err != nil {
			t.Fatalf("post-handoff Set(%s): %v", keyName(i), err)
		}
	}
	r.check(t)
}
