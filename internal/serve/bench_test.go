package serve

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

// The serving tier's per-layer rows: one 96x96 float64 section through
// net/http on loopback, drxserve's defaults, cache warm — what the
// handler, the coalescer and the wire cost with the store out of the
// way. Run by the benchmark-smoke leg of `make ci`.

func BenchmarkServeGet(b *testing.B) {
	withBenchServer(b, func(s *Server, url string) {
		section := url + "/v1/arrays/bench/section?" + benchQuery
		buf := make([]byte, benchPayload)
		b.SetBytes(benchPayload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(section)
			if err != nil {
				b.Fatal(err)
			}
			_, err = io.ReadFull(resp.Body, buf)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d, body: %v", resp.StatusCode, err)
			}
		}
	})
}

func BenchmarkServePut(b *testing.B) {
	withBenchServer(b, func(s *Server, url string) {
		section := url + "/v1/arrays/bench/section?" + benchQuery
		payload := bytes.Repeat([]byte{0x5a}, benchPayload)
		b.SetBytes(benchPayload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := http.NewRequest(http.MethodPut, section, bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}
