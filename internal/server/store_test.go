package server

import (
	crand "crypto/rand"
	"crypto/rsa"
	"math/rand"
	"sync"
	"testing"

	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/reward"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

var (
	internalKeyOnce sync.Once
	internalKey     *rsa.PrivateKey
)

// sharedBankInternal caches one RSA key for the in-package tests.
func sharedBankInternal(t testing.TB) *reward.Bank {
	t.Helper()
	internalKeyOnce.Do(func() {
		k, err := rsa.GenerateKey(crand.Reader, 1024)
		if err != nil {
			t.Fatal(err)
		}
		internalKey = k
	})
	return reward.NewBankFromKey(internalKey)
}

// putBatch validates and stores a batch of profiles through
// Store.commit, the way an upload batch lands; per-profile failures are
// counted, not fatal.
func (s *Store) putBatch(ps []*vp.Profile) BatchResult {
	var res BatchResult
	valid := make([]*vp.Profile, 0, len(ps))
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			res.Rejected++
			s.rejectedCount.Add(1)
			continue
		}
		valid = append(valid, p)
	}
	put, _ := s.commit(valid, true, nil)
	put.Rejected += res.Rejected
	return put
}

// fabricate builds a valid complete profile for store tests.
func fabricate(t testing.TB, minute int64, seed int64) *vp.Profile {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	track := make([]geo.Point, vd.SegmentSeconds)
	for i := range track {
		track[i] = geo.Pt(float64(i)*10, float64(seed))
	}
	p, err := core.FabricateProfile(track, minute, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStorePutGetMinute(t *testing.T) {
	s := NewStore()
	p1 := fabricate(t, 0, 1)
	p2 := fabricate(t, 0, 2)
	p3 := fabricate(t, 1, 3)
	for _, p := range []*vp.Profile{p1, p2, p3} {
		if err := s.Put(p); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if got, ok := s.Get(p1.ID()); !ok || got != p1 {
		t.Error("Get should return the stored profile")
	}
	if m0 := s.Minute(0); len(m0) != 2 {
		t.Errorf("Minute(0) = %d profiles, want 2", len(m0))
	}
	if m9 := s.Minute(9); len(m9) != 0 {
		t.Errorf("Minute(9) = %d profiles, want 0", len(m9))
	}
}

func TestStoreRejectsDuplicateAndInvalid(t *testing.T) {
	s := NewStore()
	p := fabricate(t, 0, 4)
	if err := s.Put(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(p); err != ErrDuplicate {
		t.Errorf("duplicate Put = %v, want ErrDuplicate", err)
	}
	bad := &vp.Profile{VDs: p.VDs[:10], Neighbors: p.Neighbors}
	if err := s.Put(bad); err == nil {
		t.Error("invalid profile should be rejected")
	}
}

func TestStoreTrustedCount(t *testing.T) {
	s := NewStore()
	p := fabricate(t, 0, 5)
	p.Trusted = true
	s.Put(p)
	s.Put(fabricate(t, 0, 6))
	if s.TrustedCount() != 1 {
		t.Errorf("TrustedCount = %d, want 1", s.TrustedCount())
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := fabricate(t, int64(i%3), int64(w*1000+i))
				_ = s.Put(p)
				s.Minute(int64(i % 3))
				s.Len()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8*20 {
		t.Errorf("Len = %d, want 160", s.Len())
	}
}

// TestIngestRejectionCounterParity pins the counter alignment of burst
// linking: a profile the linker refuses advances the store's
// rejectedCount gate counter exactly as often as it advances the
// per-burst rejected result — and releases its identifier claim —
// while a replay-path burst advances neither. The rejection is provoked
// white-box (a wrong-minute profile handed straight to a shard's link
// step: unreachable through the public API, which groups by the same
// Minute() the builder checks).
func TestIngestRejectionCounterParity(t *testing.T) {
	s := NewStore()
	defer s.Close()
	for name, countRejects := range map[string]bool{"live": true, "replay": false} {
		before := s.rejectedCount.Load()
		p := fabricate(t, 1, 7700)
		sh, err := s.ensureShard(0) // minute 0 shard, minute 1 profile
		if err != nil {
			t.Fatal(err)
		}
		s.ids.Store(p.ID(), p)
		b := &burst{profiles: []*vp.Profile{p}, countRejects: countRejects}
		if !s.linkBurst(sh, b) {
			t.Fatal("linkBurst found the shard evicted")
		}
		if b.stored != 0 || b.rejected != 1 || b.errs == nil || b.errs[0] == nil {
			t.Fatalf("%s: burst result stored=%d rejected=%d errs=%v, want 1 rejection", name, b.stored, b.rejected, b.errs)
		}
		wantDelta := int64(0)
		if countRejects {
			wantDelta = 1
		}
		if got := s.rejectedCount.Load() - before; got != wantDelta {
			t.Errorf("%s: rejectedCount advanced by %d, want %d (parity with BatchResult.Rejected)", name, got, wantDelta)
		}
		if s.hasID(p.ID()) {
			t.Errorf("%s: rejected profile left its identifier claimed", name)
		}
		if s.Len() != 0 {
			t.Errorf("%s: rejected profile counted as stored", name)
		}
	}
}

func TestSystemAuthorityGate(t *testing.T) {
	sys, err := NewSystem(Config{AuthorityToken: "good", Bank: sharedBankInternal(t)})
	if err != nil {
		t.Fatal(err)
	}
	p := fabricate(t, 0, 7)
	if err := sys.UploadTrustedVP("bad", p.Marshal()); err != ErrUnauthorized {
		t.Errorf("bad token = %v, want ErrUnauthorized", err)
	}
	if _, err := sys.Investigate("bad", geo.RectAround(geo.Pt(0, 0), 10), 0); err != ErrUnauthorized {
		t.Errorf("bad token investigate = %v, want ErrUnauthorized", err)
	}
}
