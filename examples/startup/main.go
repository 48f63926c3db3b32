// Startup example: reproduces the paper's headline phenomenon interactively
// — start_pes time versus job size for the current (static, fully
// connected) and proposed (on-demand + non-blocking PMI) designs, printing
// the same per-phase breakdown as Figures 1 and 5(b).
//
//	go run ./examples/startup
package main

import (
	"fmt"
	"log"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
	"goshmem/internal/vclock"
)

func main() {
	fmt.Println("start_pes time by design (1 GiB modeled heap, 16 ppn)")
	fmt.Printf("%8s  %28s  %28s  %8s\n", "nprocs", "static: total (conn/pmi)", "on-demand: total (conn/pmi)", "speedup")
	for _, np := range []int{64, 128, 256, 512} {
		var times [2]float64
		var detail [2]string
		for i, mode := range []gasnet.Mode{gasnet.Static, gasnet.OnDemand} {
			res, err := cluster.Run(cluster.Config{
				NP: np, PPN: 16, Mode: mode,
				HeapSize: 1 << 30,
			}, func(c *shmem.Ctx) {})
			if err != nil {
				log.Fatal(err)
			}
			b := res.PEs[0].Phases.Fig1()
			times[i] = vclock.Seconds(res.InitAvg)
			detail[i] = fmt.Sprintf("%6.3fs (%5.3f/%5.3f)", times[i],
				vclock.Seconds(b[0]), vclock.Seconds(b[1]))
		}
		fmt.Printf("%8d  %28s  %28s  %7.1fx\n", np, detail[0], detail[1], times[0]/times[1])
	}
	fmt.Println("\nThe static design's connection-setup and PMI costs grow with N;")
	fmt.Println("the proposed design defers both, so start_pes stays near constant.")
}
