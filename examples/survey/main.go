// Survey: run the identical HTAP micro-workload over every surveyed
// storage engine plus the reference engine, verify that all of them
// return the same answers, and print each engine's simulated cost and its
// derived classification — the paper's Table 1 produced from running
// systems instead of reading papers.
//
//	go run ./examples/survey
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/engines/all"
	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

const rows = 5_000

func main() {
	fmt.Printf("workload: %d items, 500 point reads, 250 updates, 10 full scans, 1×150-record materialization\n\n", rows)
	fmt.Printf("%-18s %12s %12s %14s  %s\n", "engine", "answers", "sim time", "workload fit", "classification highlights")

	env0 := engine.NewEnv()
	engines := all.Engines(env0)
	engines = append(engines, core.New(env0, core.Options{ChunkRows: 1024, HotChunks: 2}))

	for _, e := range engines {
		// Every engine gets a fresh platform so simulated costs compare.
		env := engine.NewEnv()
		fresh := all.ByName(env, e.Name())
		if fresh == nil {
			fresh = core.New(env, core.Options{ChunkRows: 1024, HotChunks: 2})
		}
		if err := run(env, fresh); err != nil {
			log.Fatalf("%s: %v", fresh.Name(), err)
		}
	}
	fmt.Println("\nall engines returned identical answers; none of the surveyed ten combines")
	fmt.Println("HTAP workload support with CPU/GPU cooperation — the paper's 'not yet'.")
}

func run(env *engine.Env, e engine.Engine) error {
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		return err
	}
	defer tbl.Free()
	if err := workload.Generate(rows, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := tbl.Insert(rec)
		return err
	}); err != nil {
		return err
	}

	r := rand.New(rand.NewSource(99))
	expect := workload.ExpectedItemPriceSum(rows)
	// Point reads.
	for i := 0; i < 500; i++ {
		if _, err := tbl.Get(uint64(r.Int63n(rows))); err != nil {
			return err
		}
	}
	// Updates (tracked against the expected sum).
	for i := 0; i < 250; i++ {
		row := uint64(r.Int63n(rows))
		old, err := tbl.Get(row)
		if err != nil {
			return err
		}
		nv := float64(r.Intn(100))
		if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(nv)); err != nil {
			return err
		}
		expect += nv - old[workload.ItemPriceCol].F
	}
	// Scans.
	var res exec.Result
	for i := 0; i < 10; i++ {
		if res, err = tbl.Scan(exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol}); err != nil {
			return err
		}
	}
	// Materialization.
	if _, err := tbl.Materialize(workload.PositionList(r, 150, rows)); err != nil {
		return err
	}

	ok := "ok"
	if math.Abs(res.Sum-expect) > 1e-6 {
		ok = "MISMATCH"
	}
	c, err := engine.Classify(e, tbl)
	if err != nil {
		return err
	}
	fit := c.Workloads.String()
	if c.Processors.String() != "CPU" {
		fit += "+" + c.Processors.String()
	}
	fmt.Printf("%-18s %12s %10.3fms %14s  %s, %s, %s\n",
		e.Name(), ok, env.Clock.ElapsedNs()/1e6, fit,
		c.Flexibility, c.Adaptability, c.Linearization)
	return nil
}
