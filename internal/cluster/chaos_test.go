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

const (
	chaosAt      = 4 * time.Millisecond           // a cell's handoff or reconfiguration starts
	chaosCrashAt = chaosAt + 200*time.Microsecond // a fault lands moments into it
)

// chaosRow is one chaos cell: a recorded cluster whose
// client↔switch↔replica links chaos degrades ("drops" loses 1% of
// packets, "reorder" holds 2% back by 30 µs; every other mode is a step
// and leaves them clean), the steps script readies on it played into
// the load, a settle, the cell's own post-condition, and verify.
type chaosRow struct {
	name   string // matrix/cell
	cfg    Config
	chaos  string
	load   LoadSpec
	settle time.Duration
	script func(t *testing.T, c *Cluster) []Step
	post   func(t *testing.T, c *Cluster, p Played)
}

// run plays the row, every step of which must be admitted, and
// requires its load to have completed writes.
func (row chaosRow) run(t *testing.T) {
	t.Helper()
	cfg := row.cfg
	cfg.RecordHistory = true
	switch row.chaos {
	case "drops":
		cfg.DropProb = 0.01
	case "reorder":
		cfg.ReorderProb = 0.02
		cfg.ReorderDelay = 30 * time.Microsecond
	}
	c := New(cfg)
	p := c.Play(Script{Loads: []LoadSpec{row.load}, Steps: row.script(t, c), Settle: row.settle})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if rep := p.Reports[0]; rep.Ops == 0 || rep.Writes == 0 {
		t.Fatalf("no load completed: %+v", rep)
	}
	if row.post != nil {
		row.post(t, c, p)
	}
	verify(t, c, p)
}

// seeded renames a row built at a seed other than its matrix's, so the
// seed that found a defect stays a row of its own.
func seeded(row chaosRow) chaosRow {
	row.name += fmt.Sprintf("/seed=%d", row.cfg.Seed)
	return row
}

// runChaosTable runs the table's rows of one matrix in parallel.
func runChaosTable(t *testing.T, matrix string) {
	t.Parallel()
	for _, row := range chaosTable() {
		if name, ok := strings.CutPrefix(row.name, matrix+"/"); ok {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				row.run(t)
			})
		}
	}
}

// chaosTable is every chaos cell, in five matrices:
//   - migrate: protocol × fault mid-handoff × handoff shape (single,
//     batch, two-way swap, or the rebalancer's own). Aborts are legal,
//     lost slots are not;
//   - rack: protocol × fault (a destination-switch crash among them) ×
//     cross-switch handoff on a 2-switch rack, and Fig P's open loop;
//   - elastic: elastic operation × fault mid-reconfiguration;
//   - hotkey: the promoted-key fast path through each fault, its home
//     slot migrating into a holder, and a holder's removal;
//   - cross: a populated slot crossing every protocol pair, and Fig H's
//     rack.
//
// A row named /seed= keeps a fresh seed that once failed.
func chaosTable() []chaosRow {
	var rows []chaosRow
	for _, p := range allProtocols() {
		for _, chaos := range []string{"drops", "reorder", "crash"} {
			for _, kind := range []string{"single", "batch", "swap", "auto"} {
				rows = append(rows, migrateRow(p, chaos, kind))
			}
		}
	}
	for _, p := range allProtocols() {
		for _, chaos := range []string{"drops", "reorder", "crashreplica", "crashswitch"} {
			for _, kind := range []string{"single", "batch"} {
				rows = append(rows, rackRow(p, chaos, kind))
			}
		}
	}
	// Fig P's weighted 4-switch rack: open-loop arrivals keep coming
	// while the crashed shard answers nothing.
	chain, nopaxos := GroupSpec{Protocol: Chain, Replicas: 3}, GroupSpec{Protocol: NOPaxos, Replicas: 3}
	rows = append(rows, chaosRow{
		name: "rack/weighted/drops/openloop", chaos: "drops", settle: 25 * time.Millisecond,
		cfg: Config{UseHarmonia: true, Switches: 4, Seed: 317, GroupSpecs: []GroupSpec{
			{Protocol: Chain, Replicas: 5}, chain, nopaxos, chain, chain, nopaxos, chain, chain,
		}},
		load: LoadSpec{Mode: Open, Rate: 6e5, Duration: 12 * time.Millisecond, Warmup: 2 * time.Millisecond,
			WriteRatio: 0.3, Keys: 160, Dist: Uniform, PinGroups: true},
		script: func(*testing.T, *Cluster) []Step {
			return []Step{{chaosAt, CrashSwitch{1}}, {7 * time.Millisecond, ReactivateSwitch{[]int{1}}}}
		},
	})
	for _, op := range []string{"add", "remove", "respec", "reassign"} {
		for _, chaos := range []string{"drops", "reorder", "crash"} {
			rows = append(rows, elasticRow(op, chaos, 47+int64(len(op))*13))
		}
	}
	for _, chaos := range []string{"drops", "reorder", "crash", "migrate", "remove", "remove/drops"} {
		rows = append(rows, hotKeyRow(chaos, 61+int64(len(chaos))))
	}
	for _, src := range allProtocols() {
		for _, dst := range allProtocols() {
			if src != dst {
				rows = append(rows, crossRow(src, dst, 131+int64(src)*11+int64(dst)*3))
			}
		}
	}
	rows = append(rows, heteroRow("drops", 307), heteroRow("reorder", 307))
	return append(rows,
		seeded(hotKeyRow("drops", 26000144)),
		seeded(hotKeyRow("remove/drops", 11000106)),
		seeded(crossRow(PB, NOPaxos, 22000209)),
		seeded(crossRow(Chain, NOPaxos, 24000226)),
		seeded(heteroRow("drops", 21000370)),
	)
}

// chaosLoad is the table's closed loop: 30% writes over a key space
// small enough that every key sees a long history.
func chaosLoad(clients, keys int, dist Dist, warmup, d time.Duration) LoadSpec {
	return LoadSpec{Mode: Closed, Clients: clients, Duration: d, Warmup: warmup, WriteRatio: 0.3, Keys: keys, Dist: dist}
}

// crashLast crashes the last replica of group g at at: a backup or a
// follower, or a chain's tail, whose successor must then commit the
// writes it holds uncommitted.
func crashLast(c *Cluster, at time.Duration, g int) Step {
	return Step{at, CrashReplica{g, c.groups[g].n - 1}}
}

// landed fails a cell that needs the flip when a handoff aborted.
func landed(t *testing.T, p Played) {
	t.Helper()
	for _, m := range p.Migrations {
		if m.Aborted() {
			t.Fatalf("handoff of slots %v aborted (from %d to %d); the cell needs it to land", m.Slots, m.From, m.To)
		}
	}
}

func migrateRow(p Protocol, chaos, kind string) chaosRow {
	cfg := Config{Protocol: p, Replicas: 3, UseHarmonia: p != CRAQ, Groups: 3, Seed: 33 + int64(p)*7}
	keys, dist := 96, Uniform
	if kind == "auto" {
		// Fig A's rack: the rebalancer spreads a zipf-1.2 head pinned
		// onto group 0 on its own schedule.
		cfg.Groups, cfg.AutoRebalance = 4, true
		cfg.Rebalance = rebalance.Config{Threshold: 1.5, Hysteresis: 0.25, Interval: time.Millisecond, MaxSlotsPerRound: 8}
		keys, dist = 64, Zipf12
	}
	return chaosRow{
		name: fmt.Sprintf("migrate/%s/%s/%s", p, chaos, kind), cfg: cfg, chaos: chaos,
		load: chaosLoad(12, keys, dist, 2*time.Millisecond, 10*time.Millisecond), settle: 25 * time.Millisecond,
		script: func(t *testing.T, c *Cluster) []Step {
			g0 := slotsOwnedBy(c, keys, 0)
			var steps []Step
			switch kind {
			case "single":
				for i, s := range takeSlots(t, g0, 2) {
					steps = append(steps, Step{chaosAt, Migrate{[]int{s}, 1 + i%2}})
				}
			case "batch":
				steps = []Step{{chaosAt, Migrate{takeSlots(t, g0, 3), 2}}}
			case "swap":
				steps = []Step{{chaosAt, Swap{takeSlots(t, g0, 2), takeSlots(t, slotsOwnedBy(c, keys, 1), 2)}}}
			case "auto":
				var hot []int
				for rank := 0; rank < 12; rank++ {
					if s := c.SlotOfKey(workload.KeyName(workload.ZipfKeyOfRank(keys, rank))); !slices.Contains(hot, s) {
						hot = append(hot, s)
					}
				}
				if err := c.MigrateSlots(hot, 0); err != nil {
					t.Fatalf("pinning the hot slots: %v", err)
				}
			}
			if chaos == "crash" { // the source group, mid-drain
				steps = append(steps, crashLast(c, chaosCrashAt, 0))
			}
			return steps
		},
		post: func(t *testing.T, c *Cluster, _ Played) {
			if kind == "auto" && c.Rebalances() == 0 {
				t.Fatal("the rebalancer moved no slot")
			}
		},
	}
}

func rackRow(p Protocol, chaos, kind string) chaosRow {
	const keys = 96
	return chaosRow{
		name:   fmt.Sprintf("rack/%s/%s/%s", p, chaos, kind),
		cfg:    Config{Protocol: p, Replicas: 3, UseHarmonia: p != CRAQ, Groups: 4, Switches: 2, Seed: 43 + int64(p)*7},
		chaos:  chaos,
		load:   chaosLoad(12, keys, Uniform, 2*time.Millisecond, 10*time.Millisecond),
		settle: 25 * time.Millisecond,
		script: func(t *testing.T, c *Cluster) []Step {
			slots := takeSlots(t, slotsOwnedBy(c, keys, 0), 3)
			if kind == "single" {
				slots = slots[:1]
			}
			// Group 0 is on switch 0, the destination on the other.
			steps := []Step{{chaosAt, Migrate{slots, c.Rack().GroupsOf(1)[0]}}}
			switch chaos {
			case "crashreplica":
				steps = append(steps, crashLast(c, chaosCrashAt, 0))
			case "crashswitch":
				// The destination's epoch domain reboots and re-runs the
				// §5.3 agreement while the slots are in flight toward it.
				steps = append(steps, Step{chaosCrashAt, CrashSwitch{1}}, Step{6 * time.Millisecond, ReactivateSwitch{[]int{1}}})
			}
			return steps
		},
	}
}

func elasticRow(op, chaos string, seed int64) chaosRow {
	cfg := Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: seed}
	if op == "reassign" {
		cfg.Groups, cfg.Switches = 4, 2
	}
	return chaosRow{
		name: fmt.Sprintf("elastic/%s/%s", op, chaos), cfg: cfg, chaos: chaos,
		load: chaosLoad(12, 96, Uniform, 2*time.Millisecond, 10*time.Millisecond), settle: 60 * time.Millisecond,
		script: func(t *testing.T, c *Cluster) []Step {
			// A crash hits an involved group mid-drain or mid-agreement —
			// except for reassignment, whose victims retire almost at
			// once: there a victim's replica dies BEFORE the switch, so
			// recovery must max-merge around a store that stopped early.
			steps := map[string][]Step{
				"add":      {{chaosAt, AddGroup{GroupSpec{Protocol: Chain}}}},
				"remove":   {{chaosAt, RemoveGroup{1}}},
				"respec":   {{chaosAt, RespecGroup{1, GroupSpec{Protocol: Chain, Replicas: 5}}}},
				"reassign": {{chaosAt, CrashSwitch{1}}, {chaosAt, ReassignSwitch{1}}},
			}[op]
			if chaos == "crash" {
				switch op {
				case "add":
					steps = append(steps, crashLast(c, chaosCrashAt, 0)) // a seeding donor
				case "reassign":
					steps = append(steps, crashLast(c, 3800*time.Microsecond, 2))
				default:
					steps = append(steps, crashLast(c, chaosCrashAt, 1))
				}
			}
			return steps
		},
		post: func(t *testing.T, c *Cluster, _ Played) {
			counts := liveSlotCounts(t, c)
			switch op {
			case "add":
				if !c.rack.Live(3) || counts[3] == 0 {
					t.Fatalf("added group live=%v slots=%v", c.rack.Live(3), counts)
				}
			case "remove":
				if c.rack.Live(1) || counts[1] != 0 {
					t.Fatalf("removed group live=%v slots=%d", c.rack.Live(1), counts[1])
				}
			case "respec":
				if c.groups[1].inc != 1 || c.groups[1].n != 5 {
					t.Fatalf("respec state: inc=%d n=%d", c.groups[1].inc, c.groups[1].n)
				}
			case "reassign":
				for slot := 0; slot < wire.NumSlots; slot++ {
					if c.rack.SwitchOfSlot(slot) == 1 {
						t.Fatalf("slot %d still on the dead switch", slot)
					}
				}
			}
		},
	}
}

// hotKeyRow: "remove/drops" is the removal under Fig K's 512 clients
// and lossy links. After migrate's flip the round-robin must skip the
// holder-turned-home.
func hotKeyRow(chaos string, seed int64) chaosRow {
	op, links, _ := strings.Cut(chaos, "/")
	clients := 8
	if links != "" {
		clients = 512
	}
	const keys = 16
	hot := workload.KeyName(workload.ZipfKeyOfRank(keys, 0))
	return chaosRow{
		name:   "hotkey/" + chaos,
		cfg:    Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, HotKeys: true, Seed: seed},
		chaos:  cmp.Or(links, op),
		load:   chaosLoad(clients, keys, Zipf12, 2*time.Millisecond, 8*time.Millisecond),
		settle: 60 * time.Millisecond,
		script: func(t *testing.T, c *Cluster) []Step {
			c.Preload(keys)
			if err := c.PromoteKey(hot); err != nil {
				t.Fatalf("PromoteKey: %v", err)
			}
			st := c.hotKeys[wire.HashKey(hot)]
			holder := st.holders[0]
			switch op {
			case "crash":
				return []Step{crashLast(c, chaosAt, holder)}
			case "migrate":
				return []Step{{chaosAt, Migrate{[]int{st.slot}, holder}}}
			case "remove":
				return []Step{{chaosAt, RemoveGroup{holder}}}
			}
			return nil
		},
		post: func(t *testing.T, c *Cluster, p Played) {
			landed(t, p)
			// With the chaos over, clean reads of the hot key must spread
			// again.
			cl := c.NewSyncClient()
			front := c.rack.Front(c.rack.SwitchOfSlot(c.SlotOfKey(hot)))
			before := front.Stats.SpreadReads
			for i := 0; i < 12; i++ {
				if _, found, err := cl.Get(hot); err != nil || !found {
					t.Fatalf("post-chaos Get #%d: found=%v err=%v", i, found, err)
				}
			}
			if front.Stats.SpreadReads == before {
				t.Fatal("no reads were spread across the replicated set")
			}
			if op != "remove" {
				return
			}
			holder := p.Reconfigs[0].Group
			if c.rack.Live(holder) {
				t.Fatal("removed holder still live")
			}
			if hk, ok := c.KeyPromoted(hot); ok && slices.Contains(hk.Holders, uint16(holder)) {
				t.Fatalf("retired group %d still in holder set %v", holder, hk.Holders)
			}
		},
	}
}

// crossRow moves a populated slot from src to dst, both first-class
// residents, under drops.
func crossRow(src, dst Protocol, seed int64) chaosRow {
	return handoffRow(fmt.Sprintf("cross/%s_to_%s", src, dst), "drops", Config{
		GroupSpecs: []GroupSpec{{Protocol: src, Replicas: 3}, {Protocol: dst, Replicas: 3}}, Seed: seed,
	}, false)
}

// heteroRow is Fig H's rack, whose big chain loses a replica as its
// slot starts to cross over.
func heteroRow(chaos string, seed int64) chaosRow {
	return handoffRow("cross/hetero/"+chaos, chaos, Config{GroupSpecs: []GroupSpec{
		{Protocol: Chain, Replicas: 7}, {Protocol: NOPaxos, Replicas: 3}, {Protocol: NOPaxos, Replicas: 3},
	}, Seed: seed}, true)
}

// handoffRow moves a populated slot of group 0 to group 1 mid-load,
// crashing group 0's last replica alongside when crash is set. Its
// script and post share the client and keys, so a built row runs once.
func handoffRow(name, chaos string, cfg Config, crash bool) chaosRow {
	const keys = 64
	const settle = 20 * time.Millisecond
	cfg.UseHarmonia = true
	var cl *SyncClient
	var idxs []int
	return chaosRow{
		name: name, cfg: cfg, chaos: chaos, settle: settle,
		load: chaosLoad(10, keys, Uniform, time.Millisecond, 8*time.Millisecond),
		script: func(t *testing.T, c *Cluster) []Step {
			cl = c.NewSyncClient()
			// Write the keys of group 0's first slot holding two or more
			// (in slot order, not map order, for a deterministic run).
			slots := keysInSlotOwnedBy(c, keys, 0)
			var slot int
			for s := 0; s < wire.NumSlots && len(idxs) < 2; s++ {
				slot, idxs = s, slots[s]
			}
			if len(idxs) < 2 {
				t.Fatal("no slot with two keys found")
			}
			for _, i := range idxs {
				// nil lets the client encode a checkable value ID.
				if err := cl.Set(workload.KeyName(i), nil); err != nil {
					t.Fatalf("Set: %v", err)
				}
			}
			steps := []Step{{3 * time.Millisecond, Migrate{[]int{slot}, 1}}}
			if crash {
				steps = append(steps, crashLast(c, 3*time.Millisecond, 0))
			}
			return steps
		},
		post: func(t *testing.T, c *Cluster, p Played) {
			landed(t, p)
			// The keys live on, and write through, the destination.
			for _, i := range idxs {
				if _, ok, err := cl.Get(workload.KeyName(i)); err != nil || !ok {
					t.Fatalf("Get(%s) after cross-protocol handoff: %v %v", workload.KeyName(i), ok, err)
				}
				if g := cl.LastGroup(); g != 1 {
					t.Fatalf("key %s served by group %d, want 1", workload.KeyName(i), g)
				}
				if err := cl.Set(workload.KeyName(i), nil); err != nil {
					t.Fatalf("post-handoff Set(%s): %v", workload.KeyName(i), err)
				}
			}
			// A NOPaxos leader answers before a follower that lost the
			// write fetched it back: settle, so verify does not count
			// the gap reply on the wire as a leak.
			c.RunFor(settle)
		},
	}
}

// verify holds what a played run must leave behind once settled: every
// packet reference out held by a replica (current, crashed or
// replaced); no handoff in flight and every elastic operation finished
// cleanly; every slot unfrozen, routed to a live group on its switch and
// owned by that front-end alone; every handoff a step started, itself
// or through an elastic operation, settled, and each slot routed where
// its last one left it — landed, or routed back if it aborted; and the
// whole history decided linearizable.
func verify(t *testing.T, c *Cluster, p Played) {
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
	if n := len(c.migrations); n != 0 {
		t.Fatalf("%d slots still mid-handoff", n)
	}
	for _, rc := range p.Reconfigs {
		if !rc.Done() || rc.Err() != nil {
			t.Fatalf("%s of %d did not finish cleanly: done=%v err=%v", rc.Kind, rc.Group, rc.Done(), rc.Err())
		}
	}
	for slot, g := range c.SlotTable() {
		sw := c.rack.SwitchOfSlot(slot)
		if c.rack.Frozen(slot) || !c.rack.Live(g) || c.rack.SwitchOfGroup(g) != sw {
			t.Fatalf("slot %d (frozen %v) routed to group %d (live %v, on switch %d), served by switch %d",
				slot, c.rack.Frozen(slot), g, c.rack.Live(g), c.rack.SwitchOfGroup(g), sw)
		}
		for s := 0; s < c.Switches(); s++ {
			if c.FrontendOf(s).OwnsSlot(slot) != (s == sw) {
				t.Fatalf("slot %d served by switch %d, yet front-end %d owns it: %v", slot, sw, s, s != sw)
			}
		}
	}
	// Every handoff the steps started, their own and their elastic
	// operations': a slot's last mover, in fire order, decides where it
	// routes.
	handoffs := slices.Clone(p.Migrations)
	for _, rc := range p.Reconfigs {
		handoffs = append(handoffs, rc.handoffs...)
	}
	last := make([]*Migration, wire.NumSlots)
	for _, m := range handoffs {
		if !m.Done() && !m.Aborted() {
			t.Fatalf("handoff of slots %v stuck (from %d to %d)", m.Slots, m.From, m.To)
		}
		for _, s := range m.Slots {
			if prev := last[s]; prev == nil || m.began >= prev.began {
				last[s] = m
			}
		}
	}
	for s, m := range last {
		if m == nil {
			continue
		}
		want := m.To
		if m.Aborted() {
			want = m.From
		}
		if got := c.rack.RouteOf(s); got != want {
			t.Fatalf("handoff %d → %d (aborted %v): slot %d routes to %d", m.From, m.To, m.Aborted(), s, got)
		}
	}
	if res := c.CheckLinearizability(); !res.Decided || !res.Ok {
		t.Fatalf("history not linearizable: %+v", res)
	}
}

// Each matrix runs its rows of the table.
func TestMigrateChaosMatrix(t *testing.T)                    { runChaosTable(t, "migrate") }
func TestRackChaosMatrix(t *testing.T)                       { runChaosTable(t, "rack") }
func TestElasticMigrateChaosMatrix(t *testing.T)             { runChaosTable(t, "elastic") }
func TestHotKeyChaosMatrix(t *testing.T)                     { runChaosTable(t, "hotkey") }
func TestMigrateCrossProtocolSteadyStateMatrix(t *testing.T) { runChaosTable(t, "cross") }
