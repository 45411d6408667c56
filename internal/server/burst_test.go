package server

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// Tests for burst linking (burst.go): equivalence with the sequential
// path, shutdown, eviction races, and counter parity. The concurrency
// tests here are the ones `make race` leans on for the link lock.

// minuteIDs returns the minute's slab identifiers in ingest order.
func minuteIDs(s *Store, m int64) []vd.VPID {
	var out []vd.VPID
	for _, p := range s.Minute(m) {
		out = append(out, p.ID())
	}
	return out
}

// edgeSet flattens a viewmap's adjacency into identifier pairs, so
// graphs can be compared across stores with different ingest orders.
func edgeSet(vm *core.Viewmap) map[[2]vd.VPID]bool {
	set := make(map[[2]vd.VPID]bool)
	for i, nbrs := range vm.Adj {
		for _, j := range nbrs {
			a, b := vm.Profiles[i].ID(), vm.Profiles[j].ID()
			if bytes.Compare(a[:], b[:]) > 0 {
				a, b = b, a
			}
			set[[2]vd.VPID{a, b}] = true
		}
	}
	return set
}

// TestBurstSequentialEquivalence is the tentpole's correctness pin:
// one System ingests a multi-minute campaign as single uploads, the
// other as one batched burst (with an intra-burst duplicate). Slab
// order, viewmap members, edges, and the full per-VP investigation
// report must be identical.
func TestBurstSequentialEquivalence(t *testing.T) {
	const minutes, perMinute = 3, 25
	bank := sharedBankInternal(t)
	sysSeq, err := NewSystem(Config{AuthorityToken: "tok", Bank: bank})
	if err != nil {
		t.Fatal(err)
	}
	sysBurst, err := NewSystem(Config{AuthorityToken: "tok", Bank: bank})
	if err != nil {
		t.Fatal(err)
	}

	// One trusted seed per minute, identically on both systems.
	for m := int64(0); m < minutes; m++ {
		seed := fabricate(t, m, 9000+m).Marshal()
		if err := sysSeq.UploadTrustedVP("tok", seed); err != nil {
			t.Fatal(err)
		}
		if err := sysBurst.UploadTrustedVP("tok", seed); err != nil {
			t.Fatal(err)
		}
	}

	var records [][]byte
	for m := int64(0); m < minutes; m++ {
		for i := int64(0); i < perMinute; i++ {
			records = append(records, fabricate(t, m, m*1000+i).Marshal())
		}
	}
	// Intra-burst duplicate: the first record rides along twice.
	records = append(records, records[0])

	seqStored, seqDup := 0, 0
	for _, rec := range records {
		switch err := sysSeq.UploadVP(rec); {
		case err == nil:
			seqStored++
		case errors.Is(err, ErrDuplicate):
			seqDup++
		default:
			t.Fatal(err)
		}
	}
	res, err := sysBurst.UploadVPBatch(encodeBatchWire(records))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stored != seqStored || res.Duplicates != seqDup || res.Rejected != 0 {
		t.Fatalf("burst result = %+v, sequential stored %d / %d duplicates", res, seqStored, seqDup)
	}

	site := geo.NewRect(geo.Pt(-100, -100), geo.Pt(700, 100))
	for m := int64(0); m < minutes; m++ {
		if a, b := minuteIDs(sysSeq.Store(), m), minuteIDs(sysBurst.Store(), m); !reflect.DeepEqual(a, b) {
			t.Fatalf("minute %d slab order diverges: %d vs %d profiles", m, len(a), len(b))
		}
		va, err := sysSeq.Store().ViewmapFor(site, m)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := sysBurst.Store().ViewmapFor(site, m)
		if err != nil {
			t.Fatal(err)
		}
		if va.Len() != vb.Len() || va.NumEdges() != vb.NumEdges() {
			t.Fatalf("minute %d: %d members / %d edges sequential, %d / %d burst",
				m, va.Len(), va.NumEdges(), vb.Len(), vb.NumEdges())
		}
		for i := range va.Profiles {
			if va.Profiles[i].ID() != vb.Profiles[i].ID() {
				t.Fatalf("minute %d member order diverges at node %d", m, i)
			}
			if !reflect.DeepEqual(va.Adj[i], vb.Adj[i]) {
				t.Fatalf("minute %d adjacency diverges at node %d: %v vs %v", m, i, va.Adj[i], vb.Adj[i])
			}
		}
		ra, err := sysSeq.InvestigateReport("tok", site, m)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sysBurst.InvestigateReport("tok", site, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("minute %d investigation reports diverge:\n%+v\n%+v", m, ra, rb)
		}
	}
	sysSeq.Close()
	sysBurst.Close()
}

// TestBurstConcurrentEquivalence races several batch submitters into
// the same minutes and checks the resulting graphs against a
// sequentially built reference. Ingest order differs, so the
// comparison surface is the order-independent one: member identifier
// sets and edge sets. Run under -race in CI.
func TestBurstConcurrentEquivalence(t *testing.T) {
	const minutes, perMinute, writers = 2, 24, 4
	ref := NewStore()
	conc := NewStore()
	var all []*vp.Profile
	for m := int64(0); m < minutes; m++ {
		seed := fabricate(t, m, 9100+m)
		seed.Trusted = true
		all = append(all, seed)
		for i := int64(0); i < perMinute; i++ {
			all = append(all, fabricate(t, m, m*1000+i))
		}
	}
	for _, p := range all {
		if err := ref.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	// Deal the same profiles round-robin to concurrent batchers. The
	// profiles are shared with ref (profiles are immutable once built).
	chunks := make([][]*vp.Profile, writers)
	for i, p := range all {
		chunks[i%writers] = append(chunks[i%writers], p)
	}
	done := make(chan BatchResult, writers)
	for _, chunk := range chunks {
		go func(chunk []*vp.Profile) { done <- conc.putBatch(chunk) }(chunk)
	}
	stored := 0
	for range chunks {
		r := <-done
		stored += r.Stored
		if r.Rejected != 0 || r.Duplicates != 0 {
			t.Errorf("concurrent batch result = %+v, want clean", r)
		}
	}
	if stored != len(all) || conc.Len() != len(all) {
		t.Fatalf("stored %d (store holds %d), want %d", stored, conc.Len(), len(all))
	}

	site := geo.NewRect(geo.Pt(-100, -100), geo.Pt(700, 100))
	for m := int64(0); m < minutes; m++ {
		va, err := ref.ViewmapFor(site, m)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := conc.ViewmapFor(site, m)
		if err != nil {
			t.Fatal(err)
		}
		ids := func(vm *core.Viewmap) map[vd.VPID]bool {
			set := make(map[vd.VPID]bool)
			for _, p := range vm.Profiles {
				set[p.ID()] = true
			}
			return set
		}
		if !reflect.DeepEqual(ids(va), ids(vb)) {
			t.Fatalf("minute %d member sets diverge", m)
		}
		if !reflect.DeepEqual(edgeSet(va), edgeSet(vb)) {
			t.Fatalf("minute %d edge sets diverge (%d vs %d edges)", m, va.NumEdges(), vb.NumEdges())
		}
	}
	ref.Close()
	conc.Close()
}

// TestStoreCloseStopsIngest pins the shutdown contract: later ingest
// fails without leaking identifier claims, reads keep working, and
// Close is idempotent. A non-durable System's Close must propagate to
// the store.
func TestStoreCloseStopsIngest(t *testing.T) {
	s := NewStore()
	if err := s.Put(fabricate(t, 0, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent

	p := fabricate(t, 0, 2)
	if err := s.Put(p); !errors.Is(err, errStoreClosed) {
		t.Fatalf("Put after Close = %v, want errStoreClosed", err)
	}
	if s.hasID(p.ID()) {
		t.Error("failed Put left the identifier claimed")
	}
	if res := s.putBatch([]*vp.Profile{fabricate(t, 1, 3)}); res.Rejected != 1 || res.Stored != 0 {
		t.Errorf("putBatch after Close = %+v, want 1 rejected", res)
	}
	// Reads keep working.
	if s.Len() != 1 || len(s.Minute(0)) != 1 {
		t.Errorf("post-Close reads broken: Len=%d Minute(0)=%d", s.Len(), len(s.Minute(0)))
	}

	sys, err := NewSystem(Config{AuthorityToken: "tok", Bank: sharedBankInternal(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Store().Put(fabricate(t, 0, 4)); !errors.Is(err, errStoreClosed) {
		t.Errorf("Put after System.Close = %v, want errStoreClosed", err)
	}
}

// TestIngestStartsNoGoroutinePerMinute pins that ingest leaves nothing
// running per minute: with retention off, a long-running server keeps
// every minute it ever ingested, so a goroutine parked per minute would
// grow without bound.
func TestIngestStartsNoGoroutinePerMinute(t *testing.T) {
	const minutes = 64
	s := NewStore()
	defer s.Close()
	before := runtime.NumGoroutine()
	for m := int64(0); m < minutes; m++ {
		if err := s.Put(fabricate(t, m, 8800+m)); err != nil {
			t.Fatal(err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew > 8 {
		t.Fatalf("ingest into %d minutes left %d more goroutines running", minutes, grew)
	}
}

// TestEvictDuringBurst races single-profile bursts against repeated
// evictions of their minute: a burst that finds its shard evicted must
// link into the successor shard, never lost and never written into the
// orphan. Run under -race in CI.
func TestEvictDuringBurst(t *testing.T) {
	s := NewStoreWith(StoreConfig{segmentDir: t.TempDir()})
	const n, evictions = 80, 12
	done := make(chan error, 1)
	go func() {
		for i := 0; i < evictions; i++ {
			if err := s.evictShard(0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := int64(0); i < n; i++ {
		p := fabricate(t, 0, i)
		if i == 0 {
			// Trust seed for the viewmap check below; trust survives
			// eviction (the segment file records it).
			p.Trusted = true
		}
		if err := s.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Fatalf("store holds %d profiles, want %d", s.Len(), n)
	}
	for i := int64(0); i < n; i++ {
		id := fabricate(t, 0, i).ID()
		if _, ok := s.Get(id); !ok {
			t.Fatalf("profile %d lost across evictions", i)
		}
	}
	// The minute's graph is intact after the final reload: members
	// equal the slab, exactly as a never-evicted shard would serve.
	site := geo.NewRect(geo.Pt(-100, -100), geo.Pt(700, 100))
	vm, err := s.ViewmapFor(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Len() != n {
		t.Errorf("reloaded viewmap has %d members, want %d", vm.Len(), n)
	}
	s.Close()
}
