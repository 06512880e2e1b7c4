package ec

// useSSSE3 selects the PSHUFB kernel: CPUID leaf 1, ECX bit 9. Go's
// default GOAMD64=v1 does not promise SSSE3, so it is checked once
// here; tests flip it to run both paths on one machine.
var useSSSE3 = cpuidECX(1)&(1<<9) != 0

// nibTbl[c] holds c·x for every low nibble x (nibTbl[c][0]) and every
// high nibble x<<4 (nibTbl[c][1]): c·v is the XOR of the two entries
// v's nibbles index, since multiplication by c is linear over XOR.
// 8 KiB, built once from mulTbl.
var nibTbl [256][2][16]byte

// initVector builds nibTbl; the package init calls it once mulTbl is
// built.
func initVector() {
	for c := range nibTbl {
		for x := range 16 {
			nibTbl[c][0][x] = mulTbl[c][x]
			nibTbl[c][1][x] = mulTbl[c][x<<4]
		}
	}
}

// mulXorSSSE3 adds c·src into dst 16 bytes at a time, c's nibble
// tables in tbl; len(dst) must be a multiple of 16 and src at least
// as long. Implemented in mulxor_amd64.s.
//
//go:noescape
func mulXorSSSE3(tbl *[2][16]byte, dst, src []byte)

// cpuidECX returns ECX of CPUID leaf (subleaf 0).
func cpuidECX(leaf uint32) uint32

// mulXorVec adds coef·src into the whole 16-byte blocks of dst and
// returns how many bytes it did: 0 when the CPU lacks SSSE3.
func mulXorVec(dst, src []byte, coef byte) int {
	n := len(dst) &^ 15
	if !useSSSE3 || n == 0 {
		return 0
	}
	mulXorSSSE3(&nibTbl[coef], dst[:n], src[:n])
	return n
}
