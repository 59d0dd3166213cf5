// Package craq keeps the constructor the benchmark module builds CRAQ
// with. CRAQ is chain replication with apportioned reads, so it lives in
// package chain as that package's CRAQ mode; this package goes once the
// benchmark module calls chain.NewMode itself.
package craq

import (
	"harmonia/internal/protocol"
	"harmonia/internal/protocol/chain"
)

// New builds a chain node in CRAQ mode.
func New(env protocol.Env, g protocol.GroupConfig, shards int) *chain.Replica {
	return chain.NewMode(env, g, shards, true)
}
