package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTCPSendRecv(t *testing.T) {
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []byte("over the wire")); err != nil {
				return err
			}
			data, st, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if string(data) != "and back" || st.Source != 1 || st.Tag != 8 {
				return fmt.Errorf("got %q from %d tag %d", data, st.Source, st.Tag)
			}
			return nil
		}
		data, _, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "over the wire" {
			return fmt.Errorf("got %q", data)
		}
		return c.Send(0, 8, []byte("and back"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPSelfSendStaysLocal(t *testing.T) {
	stats, err := RunTCPStats(3, func(c *Comm) error {
		if err := c.Send(c.Rank(), 1, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		data, _, err := c.Recv(c.Rank(), 1)
		if err != nil {
			return err
		}
		if len(data) != 1 || data[0] != byte(c.Rank()) {
			return fmt.Errorf("self payload %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Msgs != 0 {
		t.Fatalf("self-sends hit the network: %d frames", stats.Msgs)
	}
}

func TestTCPSingleRank(t *testing.T) {
	err := RunTCP(1, func(c *Comm) error {
		if c.Size() != 1 {
			return fmt.Errorf("size %d", c.Size())
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	big := make([]byte, 3<<20) // crosses many socket buffer flushes
	for i := range big {
		big[i] = byte(i * 31)
	}
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, big)
		}
		data, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, big) {
			return fmt.Errorf("large payload corrupted (len %d)", len(data))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPFIFOPerPair(t *testing.T) {
	const msgs = 200
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 4, []byte{byte(i), byte(i >> 8)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			data, _, err := c.Recv(0, 4)
			if err != nil {
				return err
			}
			got := int(data[0]) | int(data[1])<<8
			if got != i {
				return fmt.Errorf("message %d overtook: got %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPCollectives drives every collective over sockets and checks
// the same contracts the in-process tests check.
func TestTCPCollectives(t *testing.T) {
	const n = 5
	err := RunTCP(n, func(c *Comm) error {
		// Bcast.
		var payload []byte
		if c.Rank() == 2 {
			payload = []byte("root payload")
		}
		got, err := c.Bcast(2, payload)
		if err != nil {
			return err
		}
		if string(got) != "root payload" {
			return fmt.Errorf("bcast got %q", got)
		}
		// Gather.
		parts, err := c.Gather(0, []byte{byte(10 + c.Rank())})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r, p := range parts {
				if len(p) != 1 || p[0] != byte(10+r) {
					return fmt.Errorf("gather[%d] = %v", r, p)
				}
			}
		}
		// Allgather.
		all, err := c.Allgather([]byte{byte(c.Rank() * 3)})
		if err != nil {
			return err
		}
		for r, p := range all {
			if len(p) != 1 || p[0] != byte(r*3) {
				return fmt.Errorf("allgather[%d] = %v", r, p)
			}
		}
		// Allreduce.
		sums, err := AllreduceInt64(c, []int64{int64(c.Rank()), 1}, SumInt64)
		if err != nil {
			return err
		}
		if sums[0] != int64(n*(n-1)/2) || sums[1] != n {
			return fmt.Errorf("allreduce got %v", sums)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPStatsCountTraffic(t *testing.T) {
	const payload = 1000
	stats, err := RunTCPStats(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, make([]byte, payload))
		}
		_, _, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Msgs != 1 {
		t.Fatalf("frames = %d, want 1", stats.Msgs)
	}
	// The header is the tag (4 bytes) and the payload length (8 bytes).
	if want := int64(payload + 12); stats.Bytes != want {
		t.Fatalf("bytes = %d, want %d", stats.Bytes, want)
	}
}

func TestTCPErrorPropagation(t *testing.T) {
	err := RunTCP(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("deliberate failure")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPNeedsAtLeastOneRank(t *testing.T) {
	if err := RunTCP(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("RunTCP(0) succeeded")
	}
}

// TestTCPMatchesInProcess runs the same randomized SPMD program under
// both transports and demands identical results: the transport must be
// semantically invisible.
func TestTCPMatchesInProcess(t *testing.T) {
	program := func(seed int64, n int) func(c *Comm) ([]byte, error) {
		return func(c *Comm) ([]byte, error) {
			rng := rand.New(rand.NewSource(seed + int64(c.Rank())))
			var transcript bytes.Buffer
			for round := 0; round < 6; round++ {
				// Shifted ring exchange with random payload sizes
				// derived from rank-stable seeds.
				to := (c.Rank() + 1 + round) % n
				from := (c.Rank() - 1 - round%n + 2*n) % n
				msg := make([]byte, 1+rng.Intn(100))
				for i := range msg {
					msg[i] = byte(rng.Intn(256))
				}
				if err := c.Send(to, round, msg); err != nil {
					return nil, err
				}
				got, _, err := c.Recv(from, round)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(&transcript, "r%d<-%d:%x\n", round, from, got)
				all, err := c.Allgather([]byte{byte(len(got))})
				if err != nil {
					return nil, err
				}
				for _, p := range all {
					transcript.WriteByte(p[0])
				}
			}
			return transcript.Bytes(), nil
		}
	}
	check := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%4)
		run := func(runner func(int, func(c *Comm) error) error) ([][]byte, error) {
			out := make([][]byte, n)
			err := runner(n, func(c *Comm) error {
				b, err := program(seed, n)(c)
				out[c.Rank()] = b
				return err
			})
			return out, err
		}
		inproc, err1 := run(Run)
		wire, err2 := run(RunTCP)
		if err1 != nil || err2 != nil {
			t.Logf("errors: %v / %v", err1, err2)
			return false
		}
		for r := range inproc {
			if !bytes.Equal(inproc[r], wire[r]) {
				t.Logf("rank %d transcripts differ", r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	msg := make([]byte, 4096)
	b.ReportAllocs()
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				if err := c.Send(1, 1, msg); err != nil {
					return err
				}
				if _, _, err := c.Recv(1, 2); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Recv(0, 1); err != nil {
				return err
			}
			if err := c.Send(0, 2, msg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkInProcessRoundTrip(b *testing.B) {
	msg := make([]byte, 4096)
	b.ReportAllocs()
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				if err := c.Send(1, 1, msg); err != nil {
					return err
				}
				if _, _, err := c.Recv(1, 2); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Recv(0, 1); err != nil {
				return err
			}
			if err := c.Send(0, 2, msg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
