package ec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refMulXor is the scalar log/exp loop the table kernel replaced, kept
// as the oracle: dst ^= coef·src one gfMul at a time.
func refMulXor(dst, src []byte, coef byte) {
	for i := range dst {
		dst[i] ^= gfMul(coef, src[i])
	}
}

// refEncode is Encode over refMulXor.
func refEncode(c *Code, shards [][]byte) {
	for j := 0; j < c.m; j++ {
		out := shards[c.k+j]
		clear(out)
		for t, coef := range c.gen[c.k+j] {
			refMulXor(out, shards[t], coef)
		}
	}
}

// refDecode rebuilds data shard d from the first k present shards with
// a fresh inversion and the scalar loop.
func refDecode(t testing.TB, c *Code, shards [][]byte, d, size int) []byte {
	var src []int
	var sub matrix
	for i, s := range shards {
		if s != nil && len(src) < c.k {
			src = append(src, i)
			sub = append(sub, c.gen[i])
		}
	}
	inv, err := sub.invert()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, size)
	for i, coef := range inv[d] {
		refMulXor(out, shards[src[i]], coef)
	}
	return out
}

// carve cuts n shards of size bytes out of one buffer at odd offsets
// (returned in offs), so the kernel's word loads and stores run
// unaligned and a write past a shard's end lands in a byte the caller
// can check.
func carve(rng *rand.Rand, n, size int) (buf []byte, shards [][]byte, offs []int) {
	buf = bytes.Repeat([]byte{0xa5}, n*(size+9)+8)
	at := 1 + rng.Intn(7)
	shards, offs = make([][]byte, n), make([]int, n)
	for i := range shards {
		shards[i], offs[i] = buf[at:at+size:at+size], at
		at += size + 1 + rng.Intn(8)
	}
	return buf, shards, offs
}

// FuzzEncodeReconstruct checks Encode, Update and Reconstruct against
// the scalar reference byte for byte, over unaligned shards, word-loop
// tails and any loss pattern the code tolerates, and that a decoder
// served from the cache returns what the freshly built one did; each
// input runs with the vector kernel and then with the table loop
// alone. Shards stay below 71 bytes (or are 16 KiB), so the vector
// loop runs at most four times on the small ones: FuzzMulXor covers
// the kernel over every length to 4 KiB.
func FuzzEncodeReconstruct(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		f.Add(seed, uint8(seed), uint8(seed>>1), uint16(seed*3), uint8(seed*7))
	}
	f.Add(int64(100), uint8(5), uint8(2), uint16(16<<10), uint8(0b11))
	f.Add(int64(101), uint8(7), uint8(3), uint16(16<<10), uint8(0b10101))
	f.Add(int64(102), uint8(0), uint8(1), uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, kIn, mIn uint8, sizeIn uint16, lossMask uint8) {
		eachKernel(func(kernel string) {
			checkEncodeReconstruct(t, kernel, seed, kIn, mIn, sizeIn, lossMask)
		})
	})
}

func checkEncodeReconstruct(t *testing.T, kernel string, seed int64, kIn, mIn uint8, sizeIn uint16, lossMask uint8) {
	rng := rand.New(rand.NewSource(seed))
	k, m := 1+int(kIn%8), int(mIn%4)
	size := int(sizeIn % 71)
	if sizeIn >= 16<<10 {
		size = 16 << 10
	}
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	buf, shards, offs := carve(rng, k+m, size)
	for _, s := range shards[:k] {
		rng.Read(s)
	}
	shadow := append([]byte(nil), buf...)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, k+m)
	for i, s := range shards {
		want[i] = append([]byte(nil), s...)
	}
	refEncode(c, want)
	for i := range shards {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("%s: k=%d m=%d size=%d: Encode shard %d differs from the scalar reference", kernel, k, m, size, i)
		}
	}
	// Nothing outside the parity shards moved: data, gaps and guards.
	for j := k; j < k+m; j++ {
		copy(shadow[offs[j]:], shards[j])
	}
	if !bytes.Equal(buf, shadow) {
		t.Fatalf("%s: k=%d m=%d size=%d: Encode wrote outside the parity shards", kernel, k, m, size)
	}

	// Overwrite a byte range of one data shard and add its delta into
	// the parity: the same parity as encoding the new data afresh.
	if size > 0 {
		d, col := rng.Intn(k), rng.Intn(size)
		n := rng.Intn(size - col + 1)
		delta := make([]byte, n)
		rng.Read(delta)
		for i, x := range delta {
			shards[d][col+i] ^= x
		}
		if err := c.Update(shards[k:], d, col, delta); err != nil {
			t.Fatal(err)
		}
		for i, s := range shards[:k] {
			want[i] = append(want[i][:0], s...)
		}
		refEncode(c, want)
		for j := k; j < k+m; j++ {
			if !bytes.Equal(shards[j], want[j]) {
				t.Fatalf("k=%d m=%d size=%d: Update of shard %d [%d,%d) leaves parity %d unlike a fresh encode",
					k, m, size, d, col, col+n, j)
			}
		}
	}

	// Lose up to m shards, chosen by the mask.
	var lost []int
	for i := 0; i < k+m && len(lost) < m; i++ {
		if lossMask&(1<<(i%8)) != 0 {
			lost = append(lost, i)
		}
	}
	for round := 0; round < 2; round++ { // second round hits the decoder cache
		have := make([][]byte, k+m)
		copy(have, shards)
		for _, i := range lost {
			have[i] = nil
		}
		var ref [][]byte
		for d := 0; d < k; d++ {
			if have[d] == nil {
				ref = append(ref, refDecode(t, c, have, d, size))
			}
		}
		if err := c.Reconstruct(have); err != nil {
			t.Fatalf("%s: k=%d m=%d lost=%v round %d: %v", kernel, k, m, lost, round, err)
		}
		for i := range have {
			if !bytes.Equal(have[i], want[i]) {
				t.Fatalf("k=%d m=%d size=%d lost=%v round %d: shard %d differs after Reconstruct",
					k, m, size, lost, round, i)
			}
		}
		for _, i := range lost { // ascending, like ref
			if i >= k {
				break
			}
			if !bytes.Equal(have[i], ref[0]) {
				t.Fatalf("%s: lost=%v round %d: shard %d differs from the scalar decode", kernel, lost, round, i)
			}
			ref = ref[1:]
		}
	}
}

// eachKernel runs body with the vector kernel on, where the CPU has
// one, and then with the table loop alone, and restores the detected
// setting afterwards.
func eachKernel(body func(kernel string)) {
	detected := useSSSE3
	defer func() { useSSSE3 = detected }()
	body("vector")
	useSSSE3 = false
	body("scalar")
}

// TestMulXorGuards runs the kernel on every coefficient class over
// lengths around the word and vector block sizes and checks the bytes
// on both sides of dst stay untouched.
func TestMulXorGuards(t *testing.T) {
	eachKernel(func(kernel string) {
		rng := rand.New(rand.NewSource(9))
		for _, coef := range []byte{0, 1, 2, 0x1d, 0xff} {
			for size := 0; size <= 70; size++ {
				buf, sh, offs := carve(rng, 2, size)
				rng.Read(sh[0])
				rng.Read(sh[1])
				want := append([]byte(nil), buf...)
				refMulXor(want[offs[0]:offs[0]+size], sh[1], coef)
				mulXor(sh[0], sh[1], coef)
				if !bytes.Equal(buf, want) {
					t.Fatalf("%s: coef %#x size %d: kernel differs from the scalar loop or wrote outside dst", kernel, coef, size)
				}
			}
		}
	})
}

// FuzzMulXor checks one multiply-accumulate of n bytes (0 to 4096),
// dst and src starting 0 to 15 bytes into their buffers so the vector
// loads run unaligned, against refMulXor, on each kernel: the vector blocks, the table-loop tail after them, and the
// 0xA5 guard bytes on both sides of dst. An offset byte with its top
// bit set makes src the same slice as dst, the one overlap callers may
// pass.
func FuzzMulXor(f *testing.F) {
	for i, n := range []uint16{0, 1, 15, 16, 17, 31, 32, 33, 64, 262, 300, 576, 4095, 4096} {
		f.Add(int64(i), uint8(0x1d+i), n, uint8(i), uint8(3*i))
	}
	f.Add(int64(20), uint8(0x8e), uint16(300), uint8(5), uint8(0x80))
	f.Add(int64(21), uint8(1), uint16(100), uint8(1), uint8(2))
	f.Add(int64(22), uint8(0), uint16(100), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, coef uint8, nIn uint16, dstOff, srcOff uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nIn % 4097)
		eachKernel(func(kernel string) {
			buf := bytes.Repeat([]byte{0xa5}, n+48)
			at := 16 + int(dstOff%16)
			dst := buf[at : at+n : at+n]
			rng.Read(dst)
			src := dst
			if srcOff&0x80 == 0 {
				sbuf := make([]byte, n+16)
				src = sbuf[srcOff%16 : int(srcOff%16)+n]
				rng.Read(src)
			}
			want := append([]byte(nil), buf...)
			refMulXor(want[at:at+n], append([]byte(nil), src...), coef)
			mulXor(dst, src, coef)
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s: coef %#x n %d dst+%d src+%d: differs from the scalar loop or wrote outside dst",
					kernel, coef, n, dstOff%16, srcOff)
			}
		})
	})
}

// TestReconstructCachedAllocs pins the cached-pattern cost: after the
// first reconstruct of a loss pattern, another 262-byte one allocates
// the returned shard and nothing that grows with k — no inversion.
func TestReconstructCachedAllocs(t *testing.T) {
	const k, m, size = 6, 2, 262
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	shards := randShards(rand.New(rand.NewSource(1)), k, m, size)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	have := make([][]byte, k+m)
	run := func() {
		copy(have, shards)
		have[0], have[k+1] = nil, nil
		if err := c.ReconstructData(have); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(100, run); got > 2 {
		t.Fatalf("cached-pattern ReconstructData: %.0f allocs/op, want <= 2", got)
	}
	if n := len(c.decoders); n != 1 {
		t.Fatalf("%d decoders cached for one loss pattern", n)
	}
	if !bytes.Equal(have[0], shards[0]) {
		t.Fatal("reconstructed shard differs")
	}
	dst := make([]byte, size)
	dec, err := c.Decoder(have[:k+m])
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { dec.Decode(dst, 0, shards) }); got != 0 {
		t.Fatalf("Decoder.Decode: %.0f allocs/op, want 0", got)
	}
}

// TestDecoderCacheBounded walks more survivor sets than the cache
// holds and checks it starts over instead of growing.
func TestDecoderCacheBounded(t *testing.T) {
	const k, m = 8, 3
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	shards := randShards(rand.New(rand.NewSource(2)), k, m, 8)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	patterns := 0
	for a := 0; a < k+m; a++ {
		for b := a + 1; b < k+m; b++ {
			for d := b + 1; d < k+m; d++ {
				have := make([][]byte, k+m)
				copy(have, shards)
				have[a], have[b], have[d] = nil, nil, nil
				if err := c.Reconstruct(have); err != nil {
					t.Fatal(err)
				}
				for i := range have {
					if !bytes.Equal(have[i], shards[i]) {
						t.Fatalf("lost %d,%d,%d: shard %d differs", a, b, d, i)
					}
				}
				patterns++
			}
		}
	}
	if patterns <= maxDecoders {
		t.Fatalf("only %d patterns walked, cache bound %d not reached", patterns, maxDecoders)
	}
	if n := len(c.decoders); n > maxDecoders {
		t.Fatalf("decoder cache holds %d entries, bound is %d", n, maxDecoders)
	}
}

var benchSizes = []int{16 << 10, 262}

// BenchmarkMulXor is one multiply-accumulate by a coefficient other
// than 0 and 1, on each kernel, at the slice sizes parity_degraded
// passes it (262–576 B deltas and decodes, 16 KiB units).
func BenchmarkMulXor(b *testing.B) {
	eachKernel(func(kernel string) {
		for _, n := range []int{64, 300, 576, 16 << 10} {
			b.Run(fmt.Sprintf("%s/%d", kernel, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				dst, src := make([]byte, n), make([]byte, n)
				rng.Read(dst)
				rng.Read(src)
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for b.Loop() {
					mulXor(dst, src, 0x8e)
				}
			})
		}
	})
}

// BenchmarkEncode is one 6+2 parity row; MB/s counts the k data shards.
func BenchmarkEncode(b *testing.B) {
	const k, m = 6, 2
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("6+2x%d", size), func(b *testing.B) {
			c, _ := New(k, m)
			shards := randShards(rand.New(rand.NewSource(1)), k, m, size)
			b.SetBytes(int64(k * size))
			b.ReportAllocs()
			for b.Loop() {
				if err := c.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReconstructData loses data shard 0 and parity shard 1 of a
// 6+2 row every iteration (one cached survivor set); MB/s counts the
// rebuilt shard.
func BenchmarkReconstructData(b *testing.B) {
	const k, m = 6, 2
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("6+2x%d", size), func(b *testing.B) {
			c, _ := New(k, m)
			shards := randShards(rand.New(rand.NewSource(1)), k, m, size)
			if err := c.Encode(shards); err != nil {
				b.Fatal(err)
			}
			have := make([][]byte, k+m)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for b.Loop() {
				copy(have, shards)
				have[0], have[k+1] = nil, nil
				if err := c.ReconstructData(have); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
