package client

import (
	"crypto/rsa"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"viewmap/internal/reward"
	"viewmap/internal/vd"
)

// Evidence-subsystem client flows. The owner side (poll the board,
// deliver a solicited video, withdraw and spend the payout) runs
// entirely over the anonymous channel with a fresh single-use session
// id per exchange; the investigator side (open a solicitation, fetch
// the blurred release) authenticates with the authority token.

// EvidenceOffer is one public solicitation-board line.
type EvidenceOffer struct {
	// ID is the solicited VP identifier.
	ID vd.VPID
	// Units is the cash offered for the video behind it.
	Units int
}

// SolicitationResult reports one opened (or extended) solicitation.
type SolicitationResult struct {
	// Members and InSite describe the verified viewmap.
	Members int `json:"members"`
	// InSite counts viewmap members inside the investigation site.
	InSite int `json:"inSite"`
	// Legitimate is the TrustRank-verified identifier set (hex).
	Legitimate []string `json:"legitimate"`
	// Listed and NewlyListed count board entries after the call and
	// how many it added.
	Listed int `json:"listed"`
	// NewlyListed is how many identifiers this call added.
	NewlyListed int `json:"newlyListed"`
	// Units is the per-video offer.
	Units int `json:"units"`
}

// OpenSolicitation verifies (site, minute) and posts its evidence
// solicitation at the given per-video offer. Authority only.
func (a *API) OpenSolicitation(token string, minX, minY, maxX, maxY float64, minute int64, units int) (*SolicitationResult, error) {
	reqBody, err := json.Marshal(map[string]interface{}{
		"site":   map[string]float64{"minX": minX, "minY": minY, "maxX": maxX, "maxY": maxY},
		"minute": minute,
		"units":  units,
	})
	if err != nil {
		return nil, err
	}
	resp, err := a.do("POST", "/v1/evidence/solicit", "application/json", reqBody, token)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out SolicitationResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EvidenceBoard fetches the open solicitation offers. Vehicles poll
// this anonymously; the response names identifiers and prices only.
func (a *API) EvidenceBoard() ([]EvidenceOffer, error) {
	resp, err := a.do("GET", "/v1/evidence/solicitations", "", nil, "")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out struct {
		Offers []struct {
			ID    string `json:"id"`
			Units int    `json:"units"`
		} `json:"offers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	offers := make([]EvidenceOffer, 0, len(out.Offers))
	for _, o := range out.Offers {
		b, err := hex.DecodeString(o.ID)
		if err != nil || len(b) != len(vd.VPID{}) {
			return nil, fmt.Errorf("client: bad id %q on the board", o.ID)
		}
		var id vd.VPID
		copy(id[:], b)
		offers = append(offers, EvidenceOffer{ID: id, Units: o.Units})
	}
	return offers, nil
}

// DeliverEvidence uploads a solicited video with its ownership proof
// and returns the payout entitlement in units. The request rides a
// fresh single-use session id; the server refuses replays.
func (a *API) DeliverEvidence(id vd.VPID, q vd.Secret, chunks [][]byte) (int, error) {
	reqBody, err := json.Marshal(map[string]interface{}{
		"id":     hex.EncodeToString(id[:]),
		"secret": hex.EncodeToString(q[:]),
		"chunks": chunks,
	})
	if err != nil {
		return 0, err
	}
	resp, err := a.do("POST", "/v1/evidence/deliver", "application/json", reqBody, "")
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, apiError(resp)
	}
	defer resp.Body.Close()
	var out struct {
		Units int `json:"units"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Units, nil
}

// WithdrawPayout runs the blind-signature withdrawal of n units
// against an accepted delivery's entitlement: blind fresh notes, have
// the evidence desk sign them, unblind into spendable cash.
func (a *API) WithdrawPayout(id vd.VPID, q vd.Secret, n int, pub *rsa.PublicKey) ([]*reward.Cash, error) {
	return a.withdrawBlindSigned(id, q, n, pub)
}

// RedeemPayout spends one unit at the evidence redemption desk.
func (a *API) RedeemPayout(c *reward.Cash) error {
	return a.redeemAt(c)
}

// ReleasedVideo is the investigator-facing copy of a delivery.
type ReleasedVideo struct {
	// Chunks are the redacted per-second bytes.
	Chunks [][]byte `json:"chunks"`
	// RedactedFrames and RedactedRegions count the frames processed
	// and the plate regions blurred.
	RedactedFrames  int `json:"redactedFrames"`
	RedactedRegions int `json:"redactedRegions"`
}

// FetchEvidence retrieves the blurred release of an accepted
// delivery. Authority only; the raw bytes are never served.
func (a *API) FetchEvidence(token string, id vd.VPID) (*ReleasedVideo, error) {
	resp, err := a.do("GET", "/v1/evidence/video?id="+hex.EncodeToString(id[:]), "", nil, token)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out ReleasedVideo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EvidenceStats are the evidence counters of GET /v1/stats.
type EvidenceStats struct {
	// OpenSolicitations counts board entries awaiting delivery.
	OpenSolicitations int `json:"openSolicitations"`
	// DeliveriesAccepted counts cascade-verified uploads.
	DeliveriesAccepted int `json:"deliveriesAccepted"`
	// DeliveriesRejected counts uploads refused at verification.
	DeliveriesRejected int `json:"deliveriesRejected"`
	// UnitsMinted counts blind signatures issued.
	UnitsMinted int `json:"unitsMinted"`
	// UnitsRedeemed counts cash units burned.
	UnitsRedeemed int `json:"unitsRedeemed"`
	// Released counts redacted videos handed to investigators.
	Released int `json:"released"`
}

// IngestStats are the admission-gate counters of GET /v1/stats: how
// many uploads were turned away, and at which gate.
type IngestStats struct {
	// Rejected counts profiles that failed structural validation.
	Rejected int `json:"rejected"`
	// WireRejected counts records that did not parse into profiles.
	WireRejected int `json:"wireRejected"`
	// Duplicates counts uploads with an already-claimed identifier.
	Duplicates int `json:"duplicates"`
	// Stale counts uploads rejected by the server's wall-clock
	// admission window (zero unless the server arms it).
	Stale int `json:"stale"`
	// Quarantined counts stored-but-unlinked profiles (implausible
	// trajectories), summed over shards.
	Quarantined int `json:"quarantined"`
}

// ShardStats describes one minute shard in GET /v1/stats.
type ShardStats struct {
	// Minute is the shard's unit-time window.
	Minute int64 `json:"minute"`
	// VPs counts profiles stored in the shard.
	VPs int `json:"vps"`
	// Quarantined counts the shard's stored-but-unlinked profiles.
	Quarantined int `json:"quarantined"`
	// Epoch is the shard's ingest epoch.
	Epoch uint64 `json:"epoch"`
}

// RetentionStats describe the store's resident/evicted minute split in
// GET /v1/stats.
type RetentionStats struct {
	// ResidentMinutes counts minute shards currently in memory.
	ResidentMinutes int `json:"residentMinutes"`
	// ColdResident counts resident shards reloaded from segment files.
	ColdResident int `json:"coldResident"`
	// EvictedMinutes counts minutes living only in segment files.
	EvictedMinutes int `json:"evictedMinutes"`
	// Evictions counts shard evictions this process lifetime.
	Evictions int64 `json:"evictions"`
	// EvictionTotalMS is the cumulative eviction wall time (spill +
	// drop) in milliseconds.
	EvictionTotalMS float64 `json:"evictionTotalMs"`
	// Reloads counts segment reloads this process lifetime.
	Reloads int64 `json:"reloads"`
	// ReloadTotalMS is the cumulative reload wall time (read, decode,
	// restore, install) in milliseconds.
	ReloadTotalMS float64 `json:"reloadTotalMs"`
}

// DurabilityStats describe the WAL/snapshot runtime in GET /v1/stats.
type DurabilityStats struct {
	// Enabled reports whether the server runs with an ingest WAL.
	Enabled bool `json:"enabled"`
	// AppendedLSN and SyncedLSN are the log watermarks.
	AppendedLSN uint64 `json:"appendedLSN"`
	// SyncedLSN is the last durable log sequence number.
	SyncedLSN uint64 `json:"syncedLSN"`
	// SnapshotLSN is the LSN covered by the newest snapshot.
	SnapshotLSN uint64 `json:"snapshotLSN"`
	// Snapshots counts snapshots written this process lifetime.
	Snapshots int `json:"snapshots"`
	// Replayed counts WAL records replayed at the last recovery.
	Replayed int `json:"replayed"`
	// Fsyncs counts group-commit fsyncs; FsyncTotalMS is their
	// cumulative wall time in milliseconds.
	Fsyncs       int64   `json:"fsyncs"`
	FsyncTotalMS float64 `json:"fsyncTotalMs"`
	// SnapshotTotalMS and LastSnapshotMS are the cumulative and
	// most-recent checkpoint wall times in milliseconds.
	SnapshotTotalMS float64 `json:"snapshotTotalMs"`
	LastSnapshotMS  float64 `json:"lastSnapshotMs"`
	// LastError is the most recent background durability failure.
	LastError string `json:"lastError,omitempty"`
}

// ClassAdmissionStats are one endpoint class's admission-gate counters
// in GET /v1/stats.
type ClassAdmissionStats struct {
	// Admitted counts requests that got a slot.
	Admitted uint64 `json:"admitted"`
	// Shed counts requests turned away with 429.
	Shed uint64 `json:"shed"`
	// Queued is the instantaneous wait-queue depth.
	Queued int `json:"queued"`
	// Active is the instantaneous in-flight request count.
	Active int `json:"active"`
}

// OverloadStats are the admission-control counters of GET /v1/stats:
// per-class slots taken, requests shed with 429, and the Retry-After
// hint the server sends with each shed.
type OverloadStats struct {
	// Ingest gates the upload endpoints.
	Ingest ClassAdmissionStats `json:"ingest"`
	// Investigate gates the authority endpoints (its own pool, so
	// investigations never compete with uploads).
	Investigate ClassAdmissionStats `json:"investigate"`
	// Evidence gates the vehicle-facing evidence/reward endpoints.
	Evidence ClassAdmissionStats `json:"evidence"`
	// RetryAfterSeconds echoes the backoff hint sent with sheds.
	RetryAfterSeconds int `json:"retryAfterSeconds"`
}

// ServiceStats is the full GET /v1/stats response.
type ServiceStats struct {
	// VPs and Trusted count stored profiles.
	VPs int `json:"vps"`
	// Trusted counts stored trusted profiles.
	Trusted int `json:"trusted"`
	// Minutes counts unit-time windows with stored profiles.
	Minutes int `json:"minutes"`
	// Ingest carries the admission-gate counters.
	Ingest IngestStats `json:"ingest"`
	// Shards lists per-minute shard state, ascending by minute.
	Shards []ShardStats `json:"shards"`
	// Retention carries the resident/evicted minute split.
	Retention RetentionStats `json:"retention"`
	// Durability carries the WAL/snapshot runtime counters.
	Durability DurabilityStats `json:"durability"`
	// Evidence carries the evidence-subsystem counters.
	Evidence EvidenceStats `json:"evidence"`
	// Overload carries the admission-control counters.
	Overload OverloadStats `json:"overload"`
	// Latency holds the server-side per-endpoint request-latency
	// summaries, ascending by path; empty until a request has completed.
	Latency []EndpointLatency `json:"latency"`
	// Pipeline holds the server-side ingest-stage latency summaries.
	Pipeline PipelineStats `json:"pipeline"`
}

// EndpointLatency is one endpoint's server-side request-latency
// summary in GET /v1/stats. Quantiles are histogram bucket upper
// bounds: a true p99 of v reports as some e with v <= e < 2v.
type EndpointLatency struct {
	// Endpoint is the request path ("other" for unregistered paths).
	Endpoint string `json:"endpoint"`
	// Requests counts recorded requests.
	Requests uint64 `json:"requests"`
	// P50MS and P99MS are latency quantile estimates in milliseconds.
	P50MS float64 `json:"p50Ms"`
	P99MS float64 `json:"p99Ms"`
}

// PipelineStage is one ingest-pipeline stage's latency summary in
// GET /v1/stats.
type PipelineStage struct {
	// Stage is the stage label (decode, ring_wait, link_stage, commit,
	// wal_append, fsync).
	Stage string `json:"stage"`
	// Count is the number of recorded spans.
	Count uint64 `json:"count"`
	// P50US and P99US are span quantile estimates in microseconds.
	P50US float64 `json:"p50Us"`
	P99US float64 `json:"p99Us"`
	// TotalMS is the cumulative recorded span time in milliseconds.
	TotalMS float64 `json:"totalMs"`
}

// WALBatchStats summarizes the WAL group-commit batch-size histogram
// in GET /v1/stats.
type WALBatchStats struct {
	// Commits counts group-commit fsyncs observed.
	Commits uint64 `json:"commits"`
	// P50Records and P99Records are records-per-fsync quantile
	// estimates.
	P50Records uint64 `json:"p50Records"`
	P99Records uint64 `json:"p99Records"`
}

// PipelineStats is the ingest-pipeline block of GET /v1/stats.
type PipelineStats struct {
	// Stages holds one summary per instrumented stage, pipeline order.
	Stages []PipelineStage `json:"stages"`
	// WALCommitBatch summarizes records per group-commit fsync.
	WALCommitBatch WALBatchStats `json:"walCommitBatch"`
}

// StatsFull fetches every service counter (GET /v1/stats), including
// the evidence lifecycle counters.
func (a *API) StatsFull() (*ServiceStats, error) {
	resp, err := a.do("GET", "/v1/stats", "", nil, "")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
