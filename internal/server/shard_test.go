package server

import (
	"encoding/binary"
	"sync"
	"testing"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vp"
)

// encodeBatchWire assembles the POST /v1/vp/batch wire format.
func encodeBatchWire(records [][]byte) []byte {
	var out []byte
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(records)))
	out = append(out, hdr[:]...)
	for _, rec := range records {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(rec)))
		out = append(out, hdr[:]...)
		out = append(out, rec...)
	}
	return out
}

// TestShardMinuteBoundary pins the shard assignment at the unit-time
// boundary: a profile starting exactly at minute m+1's first second
// belongs to shard m+1, never to shard m — even when its trajectory
// runs the same corridor as a minute-m profile's. Viewmaps must not
// mix them.
func TestShardMinuteBoundary(t *testing.T) {
	s := NewStore()
	m0a := fabricate(t, 0, 1)
	m0b := fabricate(t, 0, 2)
	m0b.Trusted = true
	m1 := fabricate(t, 1, 3) // same corridor as m0a, next minute
	m1.Trusted = true
	for _, p := range []*vp.Profile{m0a, m0b, m1} {
		if err := s.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Minute(0)); got != 2 {
		t.Errorf("Minute(0) holds %d profiles, want 2", got)
	}
	if got := len(s.Minute(1)); got != 1 {
		t.Errorf("Minute(1) holds %d profiles, want 1", got)
	}
	if ms := s.Minutes(); len(ms) != 2 || ms[0] != 0 || ms[1] != 1 {
		t.Errorf("Minutes() = %v, want [0 1]", ms)
	}
	site := geo.NewRect(geo.Pt(-50, -50), geo.Pt(650, 50))
	vm0, err := s.ViewmapFor(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vm0.Len() != 2 {
		t.Errorf("minute-0 viewmap has %d members, want 2", vm0.Len())
	}
	vm1, err := s.ViewmapFor(site, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vm1.Len() != 1 {
		t.Errorf("minute-1 viewmap has %d members, want 1 (no cross-minute leakage)", vm1.Len())
	}
}

// TestDuplicateDoesNotAllocateShard pins the replay defense: a
// duplicate identifier re-stamped into a fresh minute (the minute is
// attacker-chosen) must not grow the shard map, via Put or PutBatch.
func TestDuplicateDoesNotAllocateShard(t *testing.T) {
	s := NewStore()
	if err := s.Put(fabricate(t, 0, 5)); err != nil {
		t.Fatal(err)
	}
	// fabricate derives the VPID from the seed alone, so seed 5 at
	// minute 1 replays the stored identifier with a new minute.
	replay := fabricate(t, 1, 5)
	if err := s.Put(replay); err != ErrDuplicate {
		t.Fatalf("replayed Put = %v, want ErrDuplicate", err)
	}
	if res := s.PutBatch([]*vp.Profile{fabricate(t, 2, 5)}); res.Duplicates != 1 || res.Stored != 0 {
		t.Fatalf("replayed PutBatch = %+v, want 1 duplicate", res)
	}
	if got := s.MinuteCount(); got != 1 {
		t.Errorf("MinuteCount = %d after replays, want 1 (no empty shards)", got)
	}
}

// TestConcurrentDuplicateBatches uploads the same batch from several
// goroutines at once: every profile must be stored exactly once, with
// the losers counted as duplicates, regardless of interleaving.
func TestConcurrentDuplicateBatches(t *testing.T) {
	s := NewStore()
	const n, writers = 24, 6
	batch := make([]*vp.Profile, n)
	for i := range batch {
		batch[i] = fabricate(t, int64(i%3), int64(100+i))
	}
	results := make([]BatchResult, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = s.PutBatch(batch)
		}(w)
	}
	wg.Wait()
	var stored, dups int
	for _, r := range results {
		stored += r.Stored
		dups += r.Duplicates
		if r.Rejected != 0 {
			t.Errorf("batch rejected %d valid profiles", r.Rejected)
		}
	}
	if stored != n {
		t.Errorf("stored %d profiles across writers, want exactly %d", stored, n)
	}
	if dups != (writers-1)*n {
		t.Errorf("duplicates = %d, want %d", dups, (writers-1)*n)
	}
	if s.Len() != n {
		t.Errorf("store holds %d profiles, want %d", s.Len(), n)
	}
}

// TestViewmapCacheInvalidation verifies the epoch-keyed cache: a
// repeated site on an unchanged minute returns the identical cached
// viewmap, and ingest into an already-verified minute invalidates it —
// the next extraction sees the newcomer.
func TestViewmapCacheInvalidation(t *testing.T) {
	s := NewStore()
	trusted := fabricate(t, 0, 0)
	trusted.Trusted = true
	if err := s.Put(trusted); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := s.Put(fabricate(t, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	site := geo.NewRect(geo.Pt(-50, -50), geo.Pt(650, 50))
	vm1, err := s.ViewmapFor(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := s.ViewmapFor(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vm1 != vm2 {
		t.Error("unchanged minute must serve the cached viewmap (same pointer)")
	}
	epoch := s.MinuteEpoch(0)
	if err := s.Put(fabricate(t, 0, 6)); err != nil {
		t.Fatal(err)
	}
	if s.MinuteEpoch(0) == epoch {
		t.Error("ingest must advance the minute epoch")
	}
	vm3, err := s.ViewmapFor(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vm3 == vm1 {
		t.Error("ingest into a verified minute must invalidate its cached viewmap")
	}
	if vm3.Len() != vm1.Len()+1 {
		t.Errorf("refreshed viewmap has %d members, want %d", vm3.Len(), vm1.Len()+1)
	}
	// The previously returned viewmap stays valid and unchanged.
	if vm1.Len() != 6 {
		t.Errorf("published viewmap mutated: %d members, want 6", vm1.Len())
	}
}

// TestSiteViewCacheStalestFirstEviction pins the site-viewmap cache's
// eviction order: with viewmapCacheMax sites cached, a new site evicts
// the one refreshed least recently and nothing else. Site 0 is cached
// first but investigated again, so site 1 is the stalest. Evicting an
// arbitrary map entry instead would pick another site seven times in
// eight.
func TestSiteViewCacheStalestFirstEviction(t *testing.T) {
	s := NewStore()
	trusted := fabricate(t, 0, 0)
	trusted.Trusted = true
	if err := s.Put(trusted); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := s.Put(fabricate(t, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	site := func(i int) geo.Rect {
		return geo.NewRect(geo.Pt(-50-float64(i), -50), geo.Pt(650, 50))
	}
	investigate := func(i int) {
		t.Helper()
		if _, err := s.ViewmapFor(site(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < viewmapCacheMax; i++ {
		investigate(i)
	}
	investigate(0)
	investigate(viewmapCacheMax)

	sh := s.shard(0)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.cache) != viewmapCacheMax {
		t.Fatalf("cache holds %d sites, want %d", len(sh.cache), viewmapCacheMax)
	}
	for i := 0; i <= viewmapCacheMax; i++ {
		if cached := sh.cache[site(i)] != nil; cached != (i != 1) {
			t.Errorf("site %d cached = %v; only the stalest site, 1, should be evicted", i, cached)
		}
	}
}

// TestViewmapForMatchesBuild holds the serving path to the batch
// construction it replaced: the incrementally maintained, cached
// viewmap must have exactly core.Build's members and edge set over the
// same profiles.
func TestViewmapForMatchesBuild(t *testing.T) {
	s := NewStore()
	var batch []*vp.Profile
	for i := int64(0); i < 40; i++ {
		p := fabricate(t, 0, i)
		if i == 0 {
			p.Trusted = true
		}
		batch = append(batch, p)
	}
	if res := s.PutBatch(batch); res.Stored != len(batch) {
		t.Fatalf("stored %d, want %d", res.Stored, len(batch))
	}
	site := geo.NewRect(geo.Pt(-50, -50), geo.Pt(650, 50))
	served, err := s.ViewmapFor(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := core.Build(s.Minute(0), core.BuildConfig{
		Site: site, Minute: 0, RequirePlausible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if served.Len() != rebuilt.Len() || served.NumEdges() != rebuilt.NumEdges() {
		t.Fatalf("served viewmap %d members / %d edges, rebuilt %d / %d",
			served.Len(), served.NumEdges(), rebuilt.Len(), rebuilt.NumEdges())
	}
	for i := range rebuilt.Profiles {
		if served.Profiles[i].ID() != rebuilt.Profiles[i].ID() {
			t.Fatalf("member order diverges at node %d", i)
		}
		if len(served.Adj[i]) != len(rebuilt.Adj[i]) {
			t.Fatalf("node %d degree %d, rebuilt %d", i, len(served.Adj[i]), len(rebuilt.Adj[i]))
		}
		for j := range rebuilt.Adj[i] {
			if served.Adj[i][j] != rebuilt.Adj[i][j] {
				t.Fatalf("node %d adjacency %v, rebuilt %v", i, served.Adj[i], rebuilt.Adj[i])
			}
		}
	}
}

// TestConcurrentIngestAndInvestigate exercises the shard locks the way
// the serving system does: batch and single uploads racing with
// repeated investigations over the same minutes. Run under -race in CI.
func TestConcurrentIngestAndInvestigate(t *testing.T) {
	s := NewStore()
	for m := int64(0); m < 2; m++ {
		p := fabricate(t, m, 7+m) // distinct seeds: the VPID derives from the seed
		p.Trusted = true
		if err := s.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	site := geo.NewRect(geo.Pt(-50, -50), geo.Pt(650, 50))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch []*vp.Profile
			for i := 0; i < 12; i++ {
				batch = append(batch, fabricate(t, int64(i%2), int64(1000+w*100+i)))
			}
			s.PutBatch(batch)
			for i := 0; i < 6; i++ {
				_ = s.Put(fabricate(t, int64(i%2), int64(5000+w*100+i)))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				vm, err := s.ViewmapFor(site, int64(i%2))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := vm.VerifySite(vm.InSite(site), core.TrustRankConfig{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := 2 + 4*(12+6)
	if s.Len() != want {
		t.Errorf("store holds %d profiles, want %d", s.Len(), want)
	}
}

// TestUploadVPBatchWire exercises the batch wire format end to end at
// the System level: valid records land, malformed records are counted
// rejected without sinking the batch, and corrupt frames abort.
func TestUploadVPBatchWire(t *testing.T) {
	sys, err := NewSystem(Config{AuthorityToken: "tok", Bank: sharedBankInternal(t)})
	if err != nil {
		t.Fatal(err)
	}
	good1 := fabricate(t, 0, 1).Marshal()
	good2 := fabricate(t, 0, 2).Marshal()
	junk := []byte{1, 2, 3}
	res, err := sys.UploadVPBatch(encodeBatchWire([][]byte{good1, junk, good2, good1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stored != 2 || res.Rejected != 1 || res.Duplicates != 1 {
		t.Errorf("batch result = %+v, want 2 stored / 1 rejected / 1 duplicate", res)
	}
	if sys.Store().Len() != 2 {
		t.Errorf("store holds %d profiles, want 2", sys.Store().Len())
	}
	wire := encodeBatchWire([][]byte{good1})
	if _, err := sys.UploadVPBatch(wire[:len(wire)-10]); err == nil {
		t.Error("truncated batch must error")
	}
	if _, err := sys.UploadVPBatch(append(wire, 0xFF)); err == nil {
		t.Error("trailing garbage must error")
	}
}
