// GPU offload: reproduce the CoGaDB-style co-processing decision on the
// simulated device — sweep the item-table size, compare host and device
// scan costs (with and without the bus transfer), let the HyPE scheduler
// learn where to run, and show the all-or-nothing placement falling back
// to the host when the device memory is exhausted.
//
//	go run ./examples/gpu_offload
package main

import (
	"fmt"
	"log"

	"hybridstore/internal/device"
	"hybridstore/internal/engine"
	"hybridstore/internal/engines/cogadb"
	"hybridstore/internal/exec"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

func main() {
	fmt.Println("== cost model: where is the crossover? ==")
	host := perfmodel.DefaultHost()
	dev := perfmodel.DefaultDevice()
	fmt.Printf("%12s  %14s  %14s  %14s\n", "#rows", "host multi", "device+bus", "device resident")
	for _, n := range []int64{1e4, 1e5, 1e6, 1e7, 1e8} {
		h := host.ScanSumNs(n, 8, 8, host.Threads)
		dBus := dev.TransferNs(n*8) + dev.ReduceKernelNs(n, 8, 8, 1024, 512)
		dRes := dev.ReduceKernelNs(n, 8, 8, 1024, 512)
		fmt.Printf("%12d  %12.1fµs  %12.1fµs  %12.1fµs\n", n, h/1e3, dBus/1e3, dRes/1e3)
	}

	fmt.Println("\n== CoGaDB engine: HyPE learns the placement ==")
	env := engine.NewEnv()
	e := cogadb.New(env, 0.1)
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		log.Fatal(err)
	}
	ct := tbl.(*cogadb.Table)
	defer ct.Free()
	const rows = 200_000
	priceSum := exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol}
	if err := workload.Generate(rows, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := ct.Insert(rec)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if err := ct.Place(workload.ItemPriceCol); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("price column placed on device (%d rows, %d KiB)\n", rows, rows*8/1024)
	for i := 0; i < 50; i++ {
		if _, err := ct.Scan(priceSum); err != nil {
			log.Fatal(err)
		}
	}
	cpu, gpu := ct.Runs()
	fmt.Printf("after 50 scans the scheduler ran %d on the CPU and %d on the GPU\n", cpu, gpu)
	fmt.Printf("simulated platform time: %.3f ms\n", env.Clock.ElapsedNs()/1e6)

	fmt.Println("\n== all-or-nothing placement under device-memory pressure ==")
	tiny := engine.NewEnv()
	prof := perfmodel.DefaultDevice()
	prof.GlobalMemory = 512 << 10 // a 512 KiB "GPU"
	tiny.GPU = device.New(prof, tiny.Clock)
	e2 := cogadb.New(tiny, 0)
	tbl2, err := e2.Create("item", workload.ItemSchema())
	if err != nil {
		log.Fatal(err)
	}
	ct2 := tbl2.(*cogadb.Table)
	defer ct2.Free()
	if err := workload.Generate(rows, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := ct2.Insert(rec)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if err := ct2.Place(workload.ItemPriceCol); err != nil {
		fmt.Println("placement refused, column stays on host:", err)
	}
	res, err := ct2.Scan(priceSum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fallback host scan still answers: sum = %.2f (expected %.2f)\n",
		res.Sum, workload.ExpectedItemPriceSum(rows))
}
