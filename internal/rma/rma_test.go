package rma

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"drxmp/internal/cluster"
	"drxmp/internal/dtype"
)

func TestGetPut(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		local := bytes.Repeat([]byte{byte(c.Rank())}, 32)
		w, err := Create(c, local)
		if err != nil {
			return err
		}
		// Everyone reads its right neighbour's window.
		nb := (c.Rank() + 1) % 4
		got := make([]byte, 8)
		if err := w.Get(nb, 16, got); err != nil {
			return err
		}
		for _, b := range got {
			if int(b) != nb {
				return fmt.Errorf("rank %d read %d from neighbour %d", c.Rank(), b, nb)
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		// Everyone writes its rank into its left neighbour's tail.
		lb := (c.Rank() + 3) % 4
		if err := w.Put(lb, 24, bytes.Repeat([]byte{byte(c.Rank() + 100)}, 8)); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		// My tail must now hold my right neighbour's value.
		for i := 24; i < 32; i++ {
			if int(local[i]) != nb+100 {
				return fmt.Errorf("rank %d local[%d] = %d, want %d", c.Rank(), i, local[i], nb+100)
			}
		}
		return w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDifferentWindowSizes(t *testing.T) {
	err := cluster.Run(3, func(c *cluster.Comm) error {
		local := make([]byte, c.Rank()*10) // rank 0 exposes nothing
		w, err := Create(c, local)
		if err != nil {
			return err
		}
		defer w.Free()
		// Each window holds exactly its own bytes.
		for r := 0; r < 3; r++ {
			if err := w.Get(r, 0, make([]byte, r*10)); err != nil {
				return err
			}
			if err := w.Get(r, int64(r*10), make([]byte, 1)); err == nil {
				return fmt.Errorf("read past rank %d's %d-byte window accepted", r, r*10)
			}
		}
		// Out-of-range access errors cleanly.
		if err := w.Get(0, 0, make([]byte, 1)); err == nil {
			return errors.New("read past empty window accepted")
		}
		if err := w.Put(1, 8, make([]byte, 8)); err == nil {
			return errors.New("write past window accepted")
		}
		if err := w.Get(7, 0, nil); err == nil {
			return errors.New("bad rank accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateSum(t *testing.T) {
	err := cluster.Run(4, func(c *cluster.Comm) error {
		local := make([]byte, 8*4) // four float64 slots
		w, err := Create(c, local)
		if err != nil {
			return err
		}
		defer w.Free()
		// Every rank accumulates +rank+1 into slot c.Rank() of rank 0.
		src := make([]byte, 8)
		dtype.PutFloat64(dtype.Float64, src, float64(c.Rank()+1))
		for i := 0; i < 5; i++ {
			if err := w.Accumulate(0, int64(c.Rank())*8, src, dtype.Float64); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r := 0; r < 4; r++ {
				got := dtype.Float64At(dtype.Float64, local[r*8:])
				if want := float64(5 * (r + 1)); got != want {
					return fmt.Errorf("slot %d = %v, want %v", r, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateConcurrentAtomicity(t *testing.T) {
	// All ranks hammer the same slot; the total must be exact.
	const ranks, iters = 8, 200
	err := cluster.Run(ranks, func(c *cluster.Comm) error {
		local := make([]byte, 8)
		w, err := Create(c, local)
		if err != nil {
			return err
		}
		defer w.Free()
		one := make([]byte, 8)
		dtype.PutFloat64(dtype.Float64, one, 1)
		for i := 0; i < iters; i++ {
			if err := w.Accumulate(0, 0, one, dtype.Float64); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := dtype.Float64At(dtype.Float64, local)
			if got != ranks*iters {
				return fmt.Errorf("sum = %v, want %d", got, ranks*iters)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateComplex(t *testing.T) {
	err := cluster.Run(2, func(c *cluster.Comm) error {
		local := make([]byte, 16)
		if c.Rank() == 0 {
			dtype.PutComplex(dtype.Complex128, local, complex(1, 2))
		}
		w, err := Create(c, local)
		if err != nil {
			return err
		}
		defer w.Free()
		if c.Rank() == 1 {
			v := make([]byte, 16)
			dtype.PutComplex(dtype.Complex128, v, complex(10, 20))
			if err := w.Accumulate(0, 0, v, dtype.Complex128); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := dtype.ComplexAt(dtype.Complex128, local)
			if got != complex(11, 22) {
				return fmt.Errorf("complex sum = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateValidation(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		w, err := Create(c, make([]byte, 16))
		if err != nil {
			return err
		}
		defer w.Free()
		if err := w.Accumulate(0, 0, make([]byte, 7), dtype.Float64); err == nil {
			return errors.New("misaligned payload accepted")
		}
		if err := w.Accumulate(0, 0, make([]byte, 8), dtype.Invalid); err == nil {
			return errors.New("invalid dtype accepted")
		}
		if err := w.Accumulate(0, 12, make([]byte, 8), dtype.Float64); err == nil {
			return errors.New("overflowing accumulate accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFreedWindowRejected(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		w, err := Create(c, make([]byte, 8))
		if err != nil {
			return err
		}
		if err := w.Free(); err != nil {
			return err
		}
		if err := w.Get(0, 0, make([]byte, 1)); err == nil {
			return errors.New("freed window usable")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultipleWindows(t *testing.T) {
	err := cluster.Run(2, func(c *cluster.Comm) error {
		a := bytes.Repeat([]byte{1}, 8)
		b := bytes.Repeat([]byte{2}, 8)
		wa, err := Create(c, a)
		if err != nil {
			return err
		}
		wb, err := Create(c, b)
		if err != nil {
			return err
		}
		got := make([]byte, 8)
		if err := wa.Get(1-c.Rank(), 0, got); err != nil {
			return err
		}
		if got[0] != 1 {
			return fmt.Errorf("window a content %d", got[0])
		}
		if err := wb.Get(1-c.Rank(), 0, got); err != nil {
			return err
		}
		if got[0] != 2 {
			return fmt.Errorf("window b content %d", got[0])
		}
		if err := wa.Free(); err != nil {
			return err
		}
		return wb.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRMAGet(b *testing.B) {
	err := cluster.Run(2, func(c *cluster.Comm) error {
		local := make([]byte, 4096)
		w, err := Create(c, local)
		if err != nil {
			return err
		}
		defer w.Free()
		if c.Rank() == 0 {
			buf := make([]byte, 64)
			for i := 0; i < b.N; i++ {
				if err := w.Get(1, int64(i%64)*64, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
