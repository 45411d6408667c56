// Command viewmap-client drives one simulated ViewMap-enabled dashcam
// against a running viewmap-server: it records synthetic minutes while
// driving a synthetic city, uploads actual and guard VPs anonymously,
// answers the evidence board's video solicitations, and collects and
// spends the payout.
//
// Usage:
//
//	viewmap-client -server http://127.0.0.1:8440 [-name car-A]
//	               [-minutes 3] [-trusted-token TOKEN] [-seed 1]
//
// With -trusted-token the client behaves as an authority vehicle
// (police car): its VPs upload as trusted and it fabricates no guards.
package main

import (
	"crypto/rsa"
	"flag"
	"fmt"
	"log"
	"os"

	"viewmap/internal/client"
	"viewmap/internal/mobility"
	"viewmap/internal/roadnet"
	"viewmap/internal/vd"
)

func main() {
	serverURL := flag.String("server", "http://127.0.0.1:8440", "system service base URL")
	name := flag.String("name", "car-A", "vehicle name (seeds its camera stream)")
	minutes := flag.Int("minutes", 3, "minutes to record")
	trustedToken := flag.String("trusted-token", "", "authority token; when set, uploads are trusted VPs")
	seed := flag.Int64("seed", 1, "trajectory seed")
	flag.Parse()

	if err := run(*serverURL, *name, *minutes, *trustedToken, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(serverURL, name string, minutes int, trustedToken string, seed int64) error {
	if minutes <= 0 {
		return fmt.Errorf("minutes must be positive, got %d", minutes)
	}
	api, err := client.NewAPI(serverURL, nil)
	if err != nil {
		return err
	}
	city, err := roadnet.BuildGrid(roadnet.GridConfig{Cols: 12, Rows: 12, Spacing: 200, BuildingFill: 0.7})
	if err != nil {
		return err
	}
	trace, err := mobility.Generate(city, mobility.Config{
		Vehicles: 1, Seconds: minutes * 60, MeanSpeedKmh: 50, Seed: seed,
	})
	if err != nil {
		return err
	}
	vehicle, err := client.NewVehicle(client.VehicleConfig{Name: name, Seed: seed})
	if err != nil {
		return err
	}

	guardNet := city.Net
	if trustedToken != "" {
		guardNet = nil // authority vehicles do not fabricate guards
	}
	for m := 0; m < minutes; m++ {
		start := int64(m) * 60
		if err := vehicle.BeginMinute(start); err != nil {
			return err
		}
		for s := 1; s <= 60; s++ {
			loc := trace.At(0, m*60+s-1)
			if _, err := vehicle.Tick(loc); err != nil {
				return err
			}
		}
		actual, guards, err := vehicle.EndMinute(guardNet)
		if err != nil {
			return err
		}
		id := actual.ID()
		fmt.Printf("minute %d: VP %x… + %d guards\n", m, id[:4], len(guards))
		for _, p := range vehicle.PendingUploads() {
			if trustedToken != "" {
				err = api.UploadTrustedVP(trustedToken, p)
			} else {
				err = api.UploadVP(p)
			}
			if err != nil {
				return fmt.Errorf("uploading VP: %w", err)
			}
		}
	}
	fmt.Printf("uploaded %d minutes of VPs; storage holds %d segments\n",
		minutes, vehicle.StoredSegments())

	// Answer the evidence board: deliver solicited videos, collect the
	// payout, and spend one unit to prove the cash works.
	board, err := api.EvidenceBoard()
	if err != nil {
		return err
	}
	boardIDs := make([]vd.VPID, len(board))
	for i, o := range board {
		boardIDs[i] = o.ID
	}
	matchedEvidence := vehicle.MatchSolicitations(boardIDs)
	var pub *rsa.PublicKey
	if len(matchedEvidence) > 0 {
		// The bank key is immutable; fetch it once for all payouts.
		if pub, err = api.BankKey(); err != nil {
			return err
		}
	}
	for id, chunks := range matchedEvidence {
		q, ok := vehicle.Secret(id)
		if !ok {
			continue
		}
		units, err := api.DeliverEvidence(id, q, chunks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "evidence delivery for %x rejected: %v\n", id[:4], err)
			continue
		}
		fmt.Printf("delivered evidence for VP %x… (%d units entitled)\n", id[:4], units)
		cash, err := api.WithdrawPayout(id, q, units, pub)
		if err != nil {
			fmt.Fprintf(os.Stderr, "payout for %x: %v\n", id[:4], err)
			continue
		}
		if err := api.RedeemPayout(cash[0]); err != nil {
			fmt.Fprintf(os.Stderr, "redeeming a unit: %v\n", err)
			continue
		}
		fmt.Printf("collected %d payout units for VP %x… and redeemed one\n", len(cash), id[:4])
	}
	return nil
}
