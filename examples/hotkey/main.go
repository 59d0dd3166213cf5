// Hotkey: per-key replication for an indivisible hot spot. A celebrity
// key is the one skew slot migration cannot fix — the whole hot spot is
// a single object, and a routing slot is the smallest unit a rebalancer
// can move. Promotion breaks the key→one-group invariant instead: the
// object is copied onto holder groups behind the same switch, the
// front-end round-robins its clean reads across home + holders, and
// every write invalidates the holder copies in its switch traversal
// (Hermes-style) so reads serialize at home until a refresh carries the
// new value back out. Linearizability is preserved throughout; only
// read capacity changes.
//
// The measured version of this story is Figure K:
// `go run ./cmd/harmonia-bench -fig K`.
package main

import (
	"fmt"
	"log"
	"time"

	"harmonia"
)

func main() {
	c, err := harmonia.New(harmonia.Config{
		Protocol:    harmonia.ChainReplication,
		Replicas:    3,
		UseHarmonia: true,
		Groups:      4,
		HotKeys:     true,
		Seed:        17,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The celebrity: the single key a Keys:1 load generator hammers.
	const celebrity = "obj00000000"
	cl := c.Client()
	if err := cl.Set(celebrity, []byte("v1")); err != nil {
		log.Fatal(err)
	}
	home := c.GroupOf(celebrity)

	// Every request for the celebrity lands on one group, however many
	// clients pile on.
	spec := harmonia.LoadSpec{
		Clients: 256, Duration: 10 * time.Millisecond, Warmup: 2 * time.Millisecond,
		WriteRatio: 0.0005, Keys: 1,
	}
	before := c.Run(spec)
	fmt.Printf("celebrity key lives on group %d\n", home)
	fmt.Printf("before promotion: %.2f MQPS, per-group ops %v\n\n",
		before.Throughput/1e6, before.GroupOps)

	// Promote: the controller copies the object to the heaviest other
	// groups on the key's switch and arms read spreading. Holders start
	// stale until the seeding refresh lands.
	if err := c.PromoteKey(celebrity); err != nil {
		log.Fatal(err)
	}
	c.AdvanceTime(time.Millisecond)
	info, _ := c.KeyPromoted(celebrity)
	fmt.Printf("promoted onto holder groups %v (stale copies: %d)\n", info.Holders, info.Stale)

	after := c.Run(spec)
	fmt.Printf("after promotion:  %.2f MQPS (%.1fx), per-group ops %v\n\n",
		after.Throughput/1e6, after.Throughput/before.Throughput, after.GroupOps)

	// A write invalidates every holder copy in its switch traversal;
	// the refresh re-validates them moments later with the new value.
	if err := cl.Set(celebrity, []byte("v2")); err != nil {
		log.Fatal(err)
	}
	info, _ = c.KeyPromoted(celebrity)
	fmt.Printf("right after a write: %d stale holder copies (reads serialize at home)\n", info.Stale)
	c.AdvanceTime(time.Millisecond)
	info, _ = c.KeyPromoted(celebrity)
	fmt.Printf("after the refresh:   %d stale, write generation %d\n", info.Stale, info.WriteGen)
	if v, ok, _ := cl.Get(celebrity); ok {
		fmt.Printf("spread read returns %q\n\n", v)
	}

	// Demotion collapses the key back to its home group (no read is
	// spread any more); with sustained skew the controller instead
	// promotes and demotes on its own — see Figure K.
	c.DemoteKey(celebrity)
	promotions, demotions := c.HotKeyStats()
	fmt.Printf("demoted: %d promotions, %d demotions over the run\n", promotions, demotions)
}
