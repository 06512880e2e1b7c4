package serve

import (
	"sort"
	"sync"

	"drxmp"
	"drxmp/internal/pfs"
)

// TenantStats is the per-tenant request accounting the server layers
// on top of the store's pfs.ServerStats: who asked for what, how often
// they queued, and how often the serving mechanisms (coalescing,
// single-flight) absorbed their traffic before it reached the servers.
type TenantStats struct {
	Requests         int64 `json:"requests"`
	Reads            int64 `json:"reads"`
	Writes           int64 `json:"writes"`
	BytesOut         int64 `json:"bytes_out"`
	BytesIn          int64 `json:"bytes_in"`
	Errors           int64 `json:"errors"`
	QueueWaits       int64 `json:"queue_waits"`
	CoalescedReads   int64 `json:"coalesced_reads"`
	SingleFlightHits int64 `json:"single_flight_hits"`
}

// tenantTable aggregates TenantStats by tenant id.
type tenantTable struct {
	mu      sync.Mutex
	tenants map[string]*TenantStats
}

func newTenantTable() *tenantTable {
	return &tenantTable{tenants: map[string]*TenantStats{}}
}

// update applies fn to tenant's stats row, creating it on first use.
func (t *tenantTable) update(tenant string, fn func(*TenantStats)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts, ok := t.tenants[tenant]
	if !ok {
		ts = &TenantStats{}
		t.tenants[tenant] = ts
	}
	fn(ts)
}

func (t *tenantTable) snapshot() map[string]TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]TenantStats, len(t.tenants))
	for k, v := range t.tenants {
		out[k] = *v
	}
	return out
}

// PFSStats is the store-side accounting summary surfaced per array
// (the sum over I/O servers of pfs.ServerStats).
type PFSStats struct {
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	Seeks        int64 `json:"seeks"`
	SieveReads   int64 `json:"sieve_reads"`
}

func pfsSummary(st pfs.Stats) PFSStats {
	var out PFSStats
	for _, ps := range st.PerServer {
		out.Reads += ps.Reads
		out.Writes += ps.Writes
		out.BytesRead += ps.BytesRead
		out.BytesWritten += ps.BytesWritten
		out.Seeks += ps.Seeks
		out.SieveReads += ps.SieveReads
	}
	return out
}

// ArrayStats is one array's full serving-tier accounting.
type ArrayStats struct {
	Name         string           `json:"name"`
	Admission    AdmissionStats   `json:"admission"`
	Coalesce     CoalesceStats    `json:"coalesce"`
	SingleFlight FlightStats      `json:"single_flight"`
	Cache        drxmp.CacheStats `json:"cache"`
	PFS          PFSStats         `json:"pfs"`
}

// Stats is the /v1/stats document.
type Stats struct {
	Arrays  []ArrayStats           `json:"arrays"`
	Tenants map[string]TenantStats `json:"tenants"`
	// Panics counts handler panics settled with 500 by the recovery
	// middleware; Draining mirrors /readyz.
	Panics   int64 `json:"panics"`
	Draining bool  `json:"draining"`
}

func (s *Server) arrayStats(a *array) ArrayStats {
	return ArrayStats{
		Name:         a.name,
		Admission:    a.adm.snapshot(),
		Coalesce:     a.co.snapshot(),
		SingleFlight: a.fl.snapshot(),
		Cache:        a.f.CacheStats(),
		PFS:          pfsSummary(a.f.FS().Stats()),
	}
}

// Stats returns the server's full accounting snapshot.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	arrays := make([]*array, 0, len(s.arrays))
	for _, a := range s.arrays {
		arrays = append(arrays, a)
	}
	s.mu.RUnlock()
	sort.Slice(arrays, func(i, j int) bool { return arrays[i].name < arrays[j].name })
	out := Stats{
		Tenants:  s.tenants.snapshot(),
		Panics:   s.panics.Load(),
		Draining: s.draining.Load(),
	}
	for _, a := range arrays {
		out.Arrays = append(out.Arrays, s.arrayStats(a))
	}
	return out
}
