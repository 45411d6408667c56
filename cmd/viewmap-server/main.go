// Command viewmap-server runs the ViewMap system service: the VP
// database, investigation/verification engine, and the evidence desk
// (video solicitation, validation and blind-signature payment),
// exposed over the HTTP API of internal/server.
//
// Usage:
//
//	viewmap-server [-addr :8440] [-authority-token TOKEN] [-bank-bits 2048]
//	               [-dsrc-range 400] [-wal PATH] [-wal-sync 0s] [-snapshot-interval 60s]
//	               [-retention N] [-resident-minutes N] [-max-upload-lag N]
//	               [-ingest-slots 64] [-ingest-queue 256]
//	               [-investigate-slots 16] [-investigate-queue 64]
//	               [-evidence-slots 32] [-evidence-queue 128] [-retry-after 1s]
//	               [-slow-request 1s] [-pprof localhost:6060]
//
// If no authority token is supplied a random one is generated and
// printed at startup; authorities pass it in the X-Viewmap-Authority
// header for trusted uploads, investigations and evidence release.
//
// Without -wal the server is ephemeral: everything lives in memory and
// is lost on exit. -wal selects durable continuous operation: every
// admitted mutation is appended (and fsynced) to the write-ahead log at
// PATH before it is acknowledged, and every -snapshot-interval a
// background checkpoint writes each minute that took ingest since the
// last one to its segment file under PATH.segments/, writes the bank
// and the evidence board to PATH.snap, and truncates the log.
// -retention N evicts minute shards older than the newest N minutes
// from memory, keeping at most -resident-minutes reloaded cold minutes
// resident. On startup the server recovers from whatever those files
// hold, restoring each minute from its segment when first touched; a
// crash loses nothing that was acknowledged. -wal-sync widens the group-commit
// window (more ingest throughput, higher ack latency — never less
// durability). -wal-sync, -snapshot-interval, -retention and
// -resident-minutes need -wal; setting one without it is refused at
// start-up. See docs/operations.md for the full operator guide.
//
// -max-upload-lag N arms wall-clock admission: an anonymous upload
// whose claimed minute trails the server clock by more than N minutes
// is refused (422 on the single path, counted rejected on the batch
// path) before it costs a WAL append. Trusted uploads are exempt —
// the authority backfills history.
//
// Admission control: VP uploads, authority requests (investigations,
// watches, solicitations, evidence releases) and owner evidence
// requests (board, delivery, payout, redemption) each pass their own
// gate of -ingest-slots, -investigate-slots or -evidence-slots
// concurrent requests plus a bounded wait queue (-ingest-queue,
// -investigate-queue, -evidence-queue); a request arriving at a full
// queue is shed with 429 and a Retry-After hint of -retry-after.
//
// Observability: GET /v1/metrics serves every histogram of the
// server's registry in Prometheus text format, and the latency,
// pipeline and trustrank blocks of GET /v1/stats serve quantiles of
// the same histograms; requests slower than -slow-request log one line
// with the per-stage span breakdown; -pprof ADDR serves net/http/pprof
// on a separate listener. docs/observability.md is the full guide.
//
// The store shards by unit-time window and links every uploaded VP
// into its minute's viewmap at ingest, so investigations are answered
// from cached, already-linked viewmaps.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"viewmap/internal/server"
)

func main() {
	addr := flag.String("addr", ":8440", "listen address")
	token := flag.String("authority-token", "", "authority token (random if empty)")
	bankBits := flag.Int("bank-bits", 2048, "RSA key size for the reward bank")
	dsrcRange := flag.Float64("dsrc-range", 0, "viewlink proximity radius in metres (0 = the 400 m default)")
	walPath := flag.String("wal", "", "ingest write-ahead log: enables durable continuous operation (snapshot at PATH.snap, segments under PATH.segments/)")
	walSync := flag.Duration("wal-sync", 0, "WAL group-commit window (requires -wal; 0 = fsync as soon as a record is buffered)")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute, "background snapshot + WAL truncation period (requires -wal; 0 = final snapshot only)")
	retention := flag.Int("retention", 0, "resident minute horizon: spill shards older than the newest N minutes to disk (requires -wal; 0 = keep all resident)")
	residentMinutes := flag.Int("resident-minutes", 0, "LRU bound on reloaded cold minutes (requires -wal; 0 = default of 2)")
	ingestSlots := flag.Int("ingest-slots", 0, "concurrent upload admissions (0 = default of 64)")
	ingestQueue := flag.Int("ingest-queue", 0, "bounded upload wait queue beyond the slots (0 = default of 256)")
	investigateSlots := flag.Int("investigate-slots", 0, "concurrent authority-request admissions, isolated from uploads (0 = default of 16)")
	investigateQueue := flag.Int("investigate-queue", 0, "bounded authority wait queue (0 = default of 64)")
	evidenceSlots := flag.Int("evidence-slots", 0, "concurrent evidence/reward admissions (0 = default of 32)")
	evidenceQueue := flag.Int("evidence-queue", 0, "bounded evidence wait queue (0 = default of 128)")
	retryAfter := flag.Duration("retry-after", 0, "backoff hint sent with 429 sheds, rounded up to whole seconds (0 = default of 1s)")
	maxUploadLag := flag.Int("max-upload-lag", 0, "stale-minute admission window: refuse anonymous uploads whose minute trails the wall clock by more than N minutes (0 = accept any minute)")
	slowRequest := flag.Duration("slow-request", time.Second, "log one structured line, with the per-stage span breakdown, for requests slower than this (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")
	flag.Parse()

	cfg := server.Config{
		AuthorityToken:      *token,
		BankBits:            *bankBits,
		SlowRequest:         *slowRequest,
		MaxUploadLagMinutes: *maxUploadLag,
		Store:               server.StoreConfig{DSRCRange: *dsrcRange},
		Overload: server.OverloadConfig{
			IngestSlots:      *ingestSlots,
			IngestQueue:      *ingestQueue,
			InvestigateSlots: *investigateSlots,
			InvestigateQueue: *investigateQueue,
			EvidenceSlots:    *evidenceSlots,
			EvidenceQueue:    *evidenceQueue,
			RetryAfter:       *retryAfter,
		},
	}
	if err := checkWALFlags(flag.CommandLine, *walPath); err != nil {
		log.Fatal(err)
	}

	var sys *server.System
	var err error
	if *walPath != "" {
		sys, err = server.OpenDurable(cfg, server.DurabilityConfig{
			WALPath:             *walPath,
			SyncInterval:        *walSync,
			SnapshotInterval:    *snapshotInterval,
			RetentionMinutes:    *retention,
			ResidentColdMinutes: *residentMinutes,
		})
		if err != nil {
			log.Fatalf("starting durable system: %v", err)
		}
		d := sys.DurabilityStatsSnapshot()
		log.Printf("durable: recovered %d VPs (snapshot LSN %d, %d WAL records replayed) from %s",
			sys.Store().Len(), d.SnapshotLSN, d.Replayed, *walPath)
		saveOnSignal(sys.Close, func() { log.Printf("final snapshot written; WAL closed") })
	} else if sys, err = server.NewSystem(cfg); err != nil {
		log.Fatalf("starting system: %v", err)
	}
	log.Printf("ViewMap system service listening on %s", *addr)
	log.Printf("authority token: %s", sys.AuthorityToken())
	if *pprofAddr != "" {
		// pprof gets its own listener so profiling endpoints never share
		// the public address (and never pass through admission control).
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			log.Printf("pprof server exited: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(server.Handler(sys)),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}

// walFlags take effect only in durable mode; without -wal the server is
// ephemeral and would silently ignore them.
var walFlags = []string{"wal-sync", "snapshot-interval", "retention", "resident-minutes"}

// checkWALFlags refuses any of walFlags set explicitly on the command
// line (even to its default) when walPath is empty.
func checkWALFlags(fs *flag.FlagSet, walPath string) error {
	if walPath != "" {
		return nil
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(walFlags, f.Name) {
			err = fmt.Errorf("-%s requires -wal: without it the server keeps nothing on disk", f.Name)
		}
	})
	return err
}

// saveOnSignal installs a SIGINT/SIGTERM handler that runs the save
// and exits.
func saveOnSignal(save func() error, logOK func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if err := save(); err != nil {
			log.Printf("saving: %v", err)
		} else {
			logOK()
		}
		os.Exit(0)
	}()
}

// logRequests is a minimal access log. Session ids rotate per request
// by protocol, so the log carries no stable user identifiers.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s (%v)", r.Method, r.URL.Path, time.Since(start).Round(time.Millisecond))
	})
}
