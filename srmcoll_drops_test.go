package srmcoll

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// TestLargeAllreduceSurvivesReorderedChunks checks the >16 KiB allreduce
// pipelines when reliable delivery reorders their broadcast stage: a
// dropped data packet of chunk k is retransmitted after chunk k+2 has
// already landed, and a node must not forward or publish chunk k before
// its own data arrives. The run is the train-hier benchmark workload: four
// training steps, each reducing eight 256 KiB buckets back to back behind
// a compute phase as long as one blocking allreduce, with at most two in
// flight, on 12x4/3 with 1% of the data packets lost. The plan seeds are
// the ones that workload derives for the auto and dualroot families from
// its run seeds 505, 604 and 1161859391. Every element must equal its
// exact sum.
func TestLargeAllreduceSurvivesReorderedChunks(t *testing.T) {
	cfg, err := ParseTopo("12x4/3")
	if err != nil {
		t.Fatal(err)
	}
	const steps, buckets, elems = 4, 8, 256 << 10 / 8
	p := cfg.P()
	// Integer-valued float64 inputs keep the sums exact in any order.
	val := func(r, b, i int) float64 { return float64((r+1)*(b+3) + i%97) }
	send := make([][][]byte, p)
	for r := range send {
		send[r] = make([][]byte, buckets)
		for b := range send[r] {
			send[r][b] = make([]byte, elems*8)
			for i := 0; i < elems; i++ {
				binary.LittleEndian.PutUint64(send[r][b][i*8:], math.Float64bits(val(r, b, i)))
			}
		}
	}
	want := make([][]byte, buckets)
	for b := range want {
		want[b] = make([]byte, elems*8)
		for i := 0; i < elems; i++ {
			sum := 0.0
			for r := 0; r < p; r++ {
				sum += val(r, b, i)
			}
			binary.LittleEndian.PutUint64(want[b][i*8:], math.Float64bits(sum))
		}
	}
	cases := []struct {
		runSeed int
		alg     AllreduceAlg
		plan    uint64
	}{
		{505, AllreduceAuto, 14734755998683209161},
		{604, AllreduceAuto, 12686550746580734940},
		{1161859391, AllreduceAuto, 7701270612555732366},
		{505, AllreduceDualRoot, 5458656783173820669},
		{604, AllreduceDualRoot, 14806834994369168771},
		{1161859391, AllreduceDualRoot, 509777876174040121},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v/seed%d", tc.alg, tc.runSeed), func(t *testing.T) {
			cl, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl.SetVariant(Variant{Allreduce: tc.alg})
			cl.SetFaultPlan(FaultPlan{Seed: tc.plan, Drop: 0.01, Reliable: true, AckTimeout: 50, Deadline: 5e6})
			recv := make([][][]byte, p)
			for r := range recv {
				recv[r] = [][]byte{make([]byte, elems*8), make([]byte, elems*8)}
			}
			calib, err := cl.Run(SRM, func(c *Comm) {
				if err := c.Allreduce(send[c.Rank()][0], recv[c.Rank()][0], Float64, Sum); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			bad := ""
			res, err := cl.Run(SRM, func(c *Comm) {
				r := c.Rank()
				var prev *Request
				wait := func(i int) {
					if err := prev.Wait(); err != nil {
						panic(err)
					}
					if got := recv[r][i%2]; !bytes.Equal(got, want[i%buckets]) && bad == "" {
						bad = fmt.Sprintf("rank %d call %d: wrong sum", r, i)
					}
				}
				for i := 0; i < steps*buckets; i++ {
					c.Compute(calib.Time)
					clear(recv[r][i%2])
					rq := c.IAllreduce(send[r][i%buckets], recv[r][i%2], Float64, Sum)
					if prev != nil {
						wait(i - 1)
					}
					prev = rq
				}
				wait(steps*buckets - 1)
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Faults.PutDrops == 0 {
				t.Fatal("the plan dropped no data packets")
			}
			if bad != "" {
				t.Fatal(bad)
			}
		})
	}
}

// TestLargeBcastSurvivesReorderedChunks is the same check for the
// large-message broadcast, whose puts go straight into the receivers' user
// buffers with nothing throttling them: packets delayed by up to 3 ms
// make chunk k land after chunk k+2, and every rank must still end with
// the root's data.
func TestLargeBcastSurvivesReorderedChunks(t *testing.T) {
	cfg, err := ParseTopo("12x4/3")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetFaultPlan(FaultPlan{Seed: 7, Delay: 0.3, DelayMax: 3000})
	const size, calls = 256 << 10, 4
	src := make([][]byte, calls)
	for it := range src {
		src[it] = make([]byte, size)
		for i := range src[it] {
			src[it][i] = byte(i*7 + it)
		}
	}
	bad := ""
	_, err = cl.Run(SRM, func(c *Comm) {
		buf := make([]byte, size)
		for it := 0; it < calls; it++ {
			if c.Rank() == 0 {
				copy(buf, src[it])
			} else {
				clear(buf)
			}
			if err := c.Bcast(buf, 0); err != nil {
				panic(err)
			}
			if !bytes.Equal(buf, src[it]) && bad == "" {
				bad = fmt.Sprintf("rank %d call %d: wrong data", c.Rank(), it)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != "" {
		t.Fatal(bad)
	}
}
