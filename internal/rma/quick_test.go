package rma

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"drxmp/internal/cluster"
	"drxmp/internal/dtype"
)

// TestQuickRMAMatchesShadow runs fenced epochs of randomized one-sided
// traffic (Put to per-origin slots, commutative Accumulate) and checks
// every rank's window against a shadow computed independently on every
// rank from the shared seed — the replicated-metadata discipline of the
// paper applied to RMA.
func TestQuickRMAMatchesShadow(t *testing.T) {
	f := func(seed int64, ranksRaw, roundsRaw uint8) bool {
		ranks := 2 + int(ranksRaw%4)   // 2..5
		rounds := 1 + int(roundsRaw%4) // 1..4
		// Slot 0 is reserved for commutative accumulates; slot 1+o is
		// origin o's put slot. Disjoint slots keep the epoch outcome
		// independent of operation interleaving, so the shadow below
		// is exact.
		slots := ranks + 1
		winBytes := slots * 8

		// One deterministic script, recomputed identically everywhere:
		// script[round][origin] = (target, putVal, accTarget, accVal).
		type step struct {
			target int
			putVal int64
			accTgt int
			accVal int64
		}
		rng := rand.New(rand.NewSource(seed))
		script := make([][]step, rounds)
		for r := range script {
			script[r] = make([]step, ranks)
			for o := range script[r] {
				script[r][o] = step{
					target: rng.Intn(ranks),
					putVal: int64(rng.Intn(1000)),
					accTgt: rng.Intn(ranks),
					accVal: int64(rng.Intn(50)),
				}
			}
		}
		// Shadow: windows[rank][slot].
		shadow := make([][]int64, ranks)
		for r := range shadow {
			shadow[r] = make([]int64, slots)
		}
		for _, roundSteps := range script {
			for o, st := range roundSteps {
				shadow[st.target][1+o] = st.putVal
			}
			for _, st := range roundSteps {
				shadow[st.accTgt][0] += st.accVal
			}
		}

		err := cluster.Run(ranks, func(c *cluster.Comm) error {
			local := make([]byte, winBytes)
			w, err := Create(c, local)
			if err != nil {
				return err
			}
			defer w.Free()
			me := c.Rank()
			for _, roundSteps := range script {
				st := roundSteps[me]
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(st.putVal))
				if err := w.Put(st.target, int64(1+me)*8, buf[:]); err != nil {
					return err
				}
				binary.LittleEndian.PutUint64(buf[:], uint64(st.accVal))
				if err := w.Accumulate(st.accTgt, 0, buf[:], dtype.Int64); err != nil {
					return err
				}
				if err := w.Fence(); err != nil {
					return err
				}
			}
			// Verify every window from every rank via Get.
			got := make([]byte, winBytes)
			for r := 0; r < ranks; r++ {
				if err := w.Get(r, 0, got); err != nil {
					return err
				}
				for s := 0; s < slots; s++ {
					v := int64(binary.LittleEndian.Uint64(got[s*8:]))
					if v != shadow[r][s] {
						return fmt.Errorf("rank %d viewing window %d slot %d: %d, want %d",
							me, r, s, v, shadow[r][s])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAccumulateCommutes: the sum of randomized concurrent
// accumulates from all ranks is order-independent.
func TestQuickAccumulateCommutes(t *testing.T) {
	f := func(seed int64) bool {
		const ranks = 4
		rng := rand.New(rand.NewSource(seed))
		contrib := make([][]int64, ranks)
		var want int64
		for r := range contrib {
			contrib[r] = make([]int64, 8)
			for i := range contrib[r] {
				contrib[r][i] = int64(rng.Intn(100))
				want += contrib[r][i]
			}
		}
		err := cluster.Run(ranks, func(c *cluster.Comm) error {
			local := make([]byte, 8)
			w, err := Create(c, local)
			if err != nil {
				return err
			}
			defer w.Free()
			for _, v := range contrib[c.Rank()] {
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				if err := w.Accumulate(0, 0, buf[:], dtype.Int64); err != nil {
					return err
				}
			}
			if err := w.Fence(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				got := int64(binary.LittleEndian.Uint64(local))
				if got != want {
					return fmt.Errorf("sum = %d, want %d", got, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
