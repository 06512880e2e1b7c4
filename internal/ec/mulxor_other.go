//go:build !amd64

package ec

// useSSSE3 is never set off amd64; tests may flip it, which changes
// nothing.
var useSSSE3 = false

func initVector() {}

// mulXorVec is the vector step, which other architectures lack: the
// table loop does every byte.
func mulXorVec(dst, src []byte, coef byte) int { return 0 }
