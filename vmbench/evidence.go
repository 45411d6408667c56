package main

import (
	"crypto/rsa"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"image"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"time"

	"viewmap/internal/blur"
	"viewmap/internal/client"
	"viewmap/internal/evidence"
	"viewmap/internal/geo"
	"viewmap/internal/reward"
	"viewmap/internal/server"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// evidenceFlow is the paper's sharing half. Set-up records convoys with
// plate-bearing cameras, uploads their VPs and opens one solicitation
// per convoy; one client then runs each owner through deliver, payout,
// redeem and the authority's release. Every 4th owner first delivers a
// tampered copy, which must be refused with 422. Blinded notes are
// prepared before the run. An op is one owner cycle.
type evidenceFlow struct {
	key     *rsa.PrivateKey
	uploads []preloadBody
	sites   []geo.Rect
	owners  []*owner
	frameW  int
	frameH  int
	// payouts and videos hold the round's replies per owner, for check.
	payouts, videos [][]byte
}

// owner is one civilian's prepared requests and expected replies.
type owner struct {
	id       vd.VPID
	vds      []vd.VD
	chunks   [][]byte
	tampered [][]byte // nil for honest owners
	// deliver, deliverBad, payout, redeem are request bodies.
	deliver, deliverBad, payout, redeem []byte
	// sigs are the blind signatures the payout must return.
	sigs    []string
	blinded []*big.Int
	cash    *reward.Cash
}

const (
	evidenceConvoys     = 4
	evidenceCivilians   = 4
	evidenceTamperEvery = 4
	evidenceUnits       = 2
	evidenceLaneGap     = 2000.0
)

// seededReader is a deterministic byte stream for note generation.
type seededReader struct{ r *rand.Rand }

func (s seededReader) Read(p []byte) (int, error) { return s.r.Read(p) }

func newEvidence(cfg benchConfig) (*evidenceFlow, error) {
	key, err := loadBankKey()
	if err != nil {
		return nil, err
	}
	w := &evidenceFlow{key: key, frameW: 160, frameH: 90}
	convoys, civilians := evidenceConvoys, evidenceCivilians
	if cfg.tiny {
		convoys = 1
	}
	plate := image.Rect(55, 40, 105, 56)
	notes := seededReader{rand.New(rand.NewSource(cfg.seed))}
	signer := reward.NewBankFromKey(key)
	pub := signer.PublicKey()
	for c := 0; c < convoys; c++ {
		laneY := float64(c) * evidenceLaneGap
		n := civilians + 1 // + police
		vehicles := make([]*client.Vehicle, n)
		for i := range vehicles {
			v, err := client.NewVehicle(client.VehicleConfig{
				Name: fmt.Sprintf("conv%d-car%d", c, i),
				Seed: cfg.seed*1000 + int64(c*100+i),
				Source: &blur.CameraSource{
					W: w.frameW, H: w.frameH,
					Seed:   uint64(cfg.seed)*7919 + uint64(c*1000+i),
					Plates: []blur.Plate{{Rect: plate}},
				},
			})
			if err != nil {
				return nil, err
			}
			if err := v.BeginMinute(0); err != nil {
				return nil, err
			}
			vehicles[i] = v
		}
		for s := 1; s <= 60; s++ {
			vds := make([]vd.VD, n)
			for i, v := range vehicles {
				d, err := v.Tick(geo.Pt(float64(s)*10+float64(i)*50, laneY))
				if err != nil {
					return nil, err
				}
				vds[i] = d
			}
			for i, v := range vehicles {
				for j, d := range vds {
					if i != j {
						if err := v.Hear(d, int64(s)); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		var civ []*vp.Profile
		for i, v := range vehicles {
			if _, _, err := v.EndMinute(nil); err != nil {
				return nil, err
			}
			for _, p := range v.PendingUploads() {
				if i == n-1 {
					w.uploads = append(w.uploads, preloadBody{trusted: true, body: p.Marshal()})
					continue
				}
				civ = append(civ, p)
				q, _ := v.Secret(p.ID())
				o, err := newOwner(p, q, v.MatchSolicitations([]vd.VPID{p.ID()})[p.ID()], len(w.owners), signer, pub, notes)
				if err != nil {
					return nil, err
				}
				w.owners = append(w.owners, o)
			}
		}
		w.uploads = append(w.uploads, preloadBody{body: vp.MarshalBatch(civ)})
		w.sites = append(w.sites, geo.NewRect(geo.Pt(0, laneY-60), geo.Pt(900, laneY+60)))
	}
	return w, nil
}

// newOwner prepares one owner's requests: the delivery (and, for every
// tamperEvery-th owner, a corrupted copy), blinded notes for the payout
// and the cash a redemption presents.
func newOwner(p *vp.Profile, q vd.Secret, chunks [][]byte, idx int, signer *reward.Bank, pub *rsa.PublicKey, random io.Reader) (*owner, error) {
	if chunks == nil {
		return nil, fmt.Errorf("vehicle lost its recording for %x", p.ID())
	}
	id := p.ID()
	o := &owner{id: id, vds: p.VDs, chunks: chunks}
	idHex, qHex := hex.EncodeToString(id[:]), hex.EncodeToString(q[:])
	var err error
	if o.deliver, err = deliverBody(idHex, qHex, chunks); err != nil {
		return nil, err
	}
	if idx%evidenceTamperEvery == evidenceTamperEvery-1 {
		o.tampered = make([][]byte, len(chunks))
		for i, c := range chunks {
			o.tampered[i] = append([]byte(nil), c...)
		}
		o.tampered[17][3] ^= 0x20
		if o.deliverBad, err = deliverBody(idHex, qHex, o.tampered); err != nil {
			return nil, err
		}
	}
	var blinded []string
	for u := 0; u < evidenceUnits; u++ {
		note, err := reward.NewNote(pub, random)
		if err != nil {
			return nil, err
		}
		b := note.Blind(pub)
		o.blinded = append(o.blinded, b)
		blinded = append(blinded, b.String())
		sig, err := signer.SignBlinded(b)
		if err != nil {
			return nil, err
		}
		o.sigs = append(o.sigs, sig.String())
		if u == 0 {
			if o.cash, err = note.Unblind(pub, sig); err != nil {
				return nil, err
			}
			if !o.cash.Verify(pub) {
				return nil, fmt.Errorf("minted cash for %x does not verify", id[:4])
			}
		}
	}
	if o.payout, err = json.Marshal(map[string]any{"id": idHex, "secret": qHex, "blinded": blinded}); err != nil {
		return nil, err
	}
	if o.redeem, err = json.Marshal(map[string]string{
		"m": base64.StdEncoding.EncodeToString(o.cash.M), "sig": o.cash.Sig.String(),
	}); err != nil {
		return nil, err
	}
	return o, nil
}

func deliverBody(idHex, qHex string, chunks [][]byte) ([]byte, error) {
	enc := make([]string, len(chunks))
	for i, c := range chunks {
		enc[i] = base64.StdEncoding.EncodeToString(c)
	}
	return json.Marshal(map[string]any{"id": idHex, "secret": qHex, "chunks": enc})
}

func (w *evidenceFlow) setup(env *roundEnv) (*server.System, error) {
	sys, err := server.NewSystem(server.Config{
		AuthorityToken: authToken,
		Bank:           reward.NewBankFromKey(w.key),
		Evidence:       evidence.Config{FrameWidth: w.frameW, FrameHeight: w.frameH},
	})
	if err != nil {
		return nil, err
	}
	if err := upload(sys, w.uploads); err != nil {
		return nil, err
	}
	for _, site := range w.sites {
		if _, err := sys.OpenSolicitation(authToken, site, 0, evidenceUnits); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

func (w *evidenceFlow) exec(env *roundEnv, sys *server.System, rec *recorder) error {
	h := server.Handler(sys)
	w.payouts = make([][]byte, len(w.owners))
	w.videos = make([][]byte, len(w.owners))
	for i, o := range w.owners {
		var cycle time.Duration
		failed := 0
		// step times one call and checks its status; a mismatch fails
		// the owner's cycle.
		step := func(name, method, path string, body []byte, hdr map[string]string, want int) []byte {
			start := time.Now()
			code, reply := call(h, method, path, body, hdr)
			d := time.Since(start)
			cycle += d
			rec.sample(name, d)
			if code != want {
				failed = 1
				rec.fail("owner %d %s: status %d, want %d", i, name, code, want)
			}
			return reply
		}
		session := func(kind string) map[string]string {
			return map[string]string{"X-Session": fmt.Sprintf("r%d-o%d-%s", env.round, i, kind)}
		}
		if o.tampered != nil {
			step("deliver_tampered", "POST", "/v1/evidence/deliver", o.deliverBad, session("bad"), http.StatusUnprocessableEntity)
			rec.unit("vd.replay_tampered", 1)
		}
		step("deliver", "POST", "/v1/evidence/deliver", o.deliver, session("deliver"), http.StatusOK)
		rec.unit("vd.replay", 1)
		payout := step("payout", "POST", "/v1/evidence/payout", o.payout, session("payout"), http.StatusOK)
		rec.unit("reward.sign", evidenceUnits)
		step("redeem", "POST", "/v1/evidence/redeem", o.redeem, nil, http.StatusOK)
		step("redeem_double", "POST", "/v1/evidence/redeem", o.redeem, nil, http.StatusConflict)
		rec.unit("reward.redeem", 1)
		rec.unit("reward.redeem_double", 1)
		video := step("release", "GET", "/v1/evidence/video?id="+hex.EncodeToString(o.id[:]), nil, authority, http.StatusOK)
		rec.unit("blur.redact", 1)
		w.payouts[i], w.videos[i] = payout, video
		rec.attempt(1, failed)
		if failed == 0 {
			rec.op(1, cycle)
		}
	}
	return nil
}

// check verifies the round's replies and the lifecycle counters: every
// payout returns the bank's signatures on the prepared notes, every
// release blurs at least one region across the video's frames, and the
// counters match one accepted delivery, two minted units, one
// redemption and one release per owner.
func (w *evidenceFlow) check(env *roundEnv, sys *server.System, rec *recorder) error {
	for i, o := range w.owners {
		var sigs struct{ Signatures []string }
		if err := json.Unmarshal(w.payouts[i], &sigs); err != nil || fmt.Sprint(sigs.Signatures) != fmt.Sprint(o.sigs) {
			rec.fail("owner %d: payout signatures differ from the bank's", i)
		}
		var rel struct{ RedactedFrames, RedactedRegions int }
		if err := json.Unmarshal(w.videos[i], &rel); err != nil || rel.RedactedRegions < 1 || rel.RedactedFrames != len(o.chunks) {
			rec.fail("owner %d: release blurred %d regions over %d frames", i, rel.RedactedRegions, rel.RedactedFrames)
		}
	}
	st := sys.Evidence().StatsSnapshot()
	bad := 0
	for _, o := range w.owners {
		if o.tampered != nil {
			bad++
		}
	}
	if st.DeliveriesAccepted != len(w.owners) || st.DeliveriesRejected != bad ||
		st.UnitsMinted != evidenceUnits*len(w.owners) || st.UnitsRedeemed != len(w.owners) || st.Released != len(w.owners) {
		rec.fail("evidence counters %+v for %d owners (%d tampered)", st, len(w.owners), bad)
	}
	return nil
}

func (w *evidenceFlow) residentVPs(sys *server.System) int { return residentVPs(sys) }

func (w *evidenceFlow) layerPass(lc *layerCosts) error {
	var honest, tampered time.Duration
	nt := 0
	for _, o := range w.owners {
		start := time.Now()
		if err := vd.Replay(o.id, o.vds, o.chunks); err != nil {
			return err
		}
		honest += time.Since(start)
		if o.tampered != nil {
			start = time.Now()
			if vd.Replay(o.id, o.vds, o.tampered) == nil {
				return fmt.Errorf("tampered copy of %x replays", o.id[:4])
			}
			tampered += time.Since(start)
			nt++
		}
	}
	n := float64(len(w.owners))
	lc.replayMS = ratio(ms(honest), n)
	lc.replayTamperedMS = ratio(ms(tampered), float64(nt))

	bank := reward.NewBankFromKey(w.key)
	var sign, redeem, double time.Duration
	for _, o := range w.owners {
		start := time.Now()
		for _, b := range o.blinded {
			if _, err := bank.SignBlinded(b); err != nil {
				return err
			}
		}
		sign += time.Since(start)
		start = time.Now()
		if err := bank.Redeem(o.cash); err != nil {
			return err
		}
		redeem += time.Since(start)
		start = time.Now()
		if bank.Redeem(o.cash) == nil {
			return fmt.Errorf("double spend of %x accepted", o.id[:4])
		}
		double += time.Since(start)
	}
	lc.signUS = ratio(us(sign), n*evidenceUnits)
	lc.redeemUS = ratio(us(redeem), n)
	lc.redeemDoubleUS = ratio(us(double), n)

	var redact time.Duration
	for _, o := range w.owners {
		start := time.Now()
		if _, _, _, err := blur.RedactChunks(o.chunks, w.frameW, w.frameH, blur.Params{}); err != nil {
			return err
		}
		redact += time.Since(start)
	}
	lc.redactMS = ratio(ms(redact), n)
	return nil
}
