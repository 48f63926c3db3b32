package bench

import (
	"fmt"

	"goshmem/internal/cluster"
	"goshmem/internal/gasnet"
	"goshmem/internal/shmem"
)

// CreditPoint is one receive-queue depth of the credit-stall suite.
type CreditPoint struct {
	RQDepth      int     // 0 = unbounded receive queue
	BurstPutNS   float64 // virtual ns per put-with-signal inside a burst
	CreditStalls int64
	RNRNaks      int64
}

// CreditStallLatency measures the tax a finite receive budget levies on a
// signal-heavy stream. PE 0 bursts put-with-signal operations at PE 1 —
// each signal is a send that consumes one receive-queue slot on the target,
// unlike the RDMA data it announces — and fences with Quiet after every
// burst. With an unbounded receive queue the burst pipelines freely; under
// a finite depth the sender's credit gate and the RNR NAK/backoff path
// serialize it, and the per-op virtual latency together with the stall/NAK
// counters reports how hard. Depth 0 is the unbounded baseline.
func CreditStallLatency(depths []int, burst, iters int) ([]CreditPoint, error) {
	var out []CreditPoint
	burstOp := Key{Op: "burst"}
	for _, depth := range depths {
		total := int64(iters * burst)
		lat, res, err := micro(cluster.Config{
			NP: 2, PPN: 1, Mode: gasnet.OnDemand, HeapSize: 4096, RQDepth: depth,
		}, func(c *shmem.Ctx, lat Lat) {
			data := c.Malloc(8)
			sig := c.Malloc(8)
			// Warm up: one signal establishes the connection so the
			// handshake is outside the timing loop.
			if c.Me() == 0 {
				c.P64Signal(data, 0, sig, 1, 1)
				c.Quiet()
			} else {
				c.WaitUntilInt64(sig, shmem.CmpGE, 1)
			}
			c.BarrierAll()
			if c.Me() == 0 {
				t0 := c.Clock().Now()
				for it := 0; it < iters; it++ {
					for b := 0; b < burst; b++ {
						c.P64Signal(data, int64(it), sig, 1, 1)
					}
					c.Quiet()
				}
				lat[burstOp] = float64(c.Clock().Now()-t0) / float64(total) // ns, not µs
			} else {
				c.WaitUntilInt64(sig, shmem.CmpGE, 1+total)
			}
			c.BarrierAll()
		})
		if err != nil {
			return nil, fmt.Errorf("credit-stall suite at rq-depth %d: %w", depth, err)
		}
		ctr := res.Counters()
		out = append(out, CreditPoint{
			RQDepth:      depth,
			BurstPutNS:   lat[burstOp],
			CreditStalls: int64(ctr.CreditStalls),
			RNRNaks:      int64(ctr.RNRNaks),
		})
	}
	return out, nil
}

// CreditTable renders the credit-stall suite.
func CreditTable(pts []CreditPoint) *Table {
	t := &Table{
		Title:   "Credit-stall tax: burst put-with-signal latency vs receive-queue depth",
		Headers: []string{"rq-depth", "ns/op", "credit stalls", "rnr naks"},
	}
	for _, p := range pts {
		depth := fmt.Sprintf("%d", p.RQDepth)
		if p.RQDepth == 0 {
			depth = "unbounded"
		}
		t.Rows = append(t.Rows, []string{
			depth, f1(p.BurstPutNS), fmt.Sprintf("%d", p.CreditStalls), fmt.Sprintf("%d", p.RNRNaks),
		})
	}
	t.Notes = append(t.Notes, "signals are sends and consume receive slots; data-plane RDMA bypasses the RQ")
	return t
}
