// Package all assembles every surveyed storage engine (paper Section IV)
// with default configurations against one environment. The survey
// harness (cmd/taxonomy), the examples and the cross-engine conformance
// tests build on this single registry.
package all

import (
	"hybridstore/internal/engine"
	"hybridstore/internal/engines/cogadb"
	"hybridstore/internal/engines/es2"
	"hybridstore/internal/engines/gputx"
	"hybridstore/internal/engines/h2o"
	"hybridstore/internal/engines/hyper"
	"hybridstore/internal/engines/hyrise"
	"hybridstore/internal/engines/lstore"
	"hybridstore/internal/engines/mirrors"
	"hybridstore/internal/engines/pax"
	"hybridstore/internal/engines/peloton"
)

// Engines returns the ten surveyed engines in the paper's Table-1 order
// (by publication year), constructed over env.
// The reference engine of internal/core is deliberately not part of the
// survey list; it is the paper's proposal, not a surveyed system.
func Engines(env *engine.Env) []engine.Engine {
	return []engine.Engine{
		// 2002
		pax.New(env),
		mirrors.New(env),
		// 2010-2011
		hyrise.New(env),
		es2.New(env),
		gputx.New(env),
		// 2014-2016
		h2o.New(env),
		hyper.New(env),
		cogadb.New(env, 0),
		lstore.New(env),
		peloton.New(env),
	}
}

// ByName returns the engine with the given survey name, or nil.
func ByName(env *engine.Env, name string) engine.Engine {
	for _, e := range Engines(env) {
		if e.Name() == name {
			return e
		}
	}
	return nil
}
