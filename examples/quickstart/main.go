// Quickstart: the smallest end-to-end ViewMap flow, entirely
// in-process.
//
// Three vehicles (two civilians and a police car) drive one minute in
// convoy, exchanging view digests over the simulated DSRC channel.
// Their view profiles are uploaded to an embedded system service; the
// authority investigates the minute, the system verifies the viewmap
// with TrustRank and lists the verified VPs on the evidence board; the
// civilians deliver the matching videos, which validate against the
// cascaded hashes in their VPs.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"viewmap/internal/client"
	"viewmap/internal/geo"
	"viewmap/internal/roadnet"
	"viewmap/internal/server"
	"viewmap/internal/vd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- System service (normally cmd/viewmap-server) ---------------
	sys, err := server.NewSystem(server.Config{AuthorityToken: "demo-authority", BankBits: 1024})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(server.Handler(sys))
	defer ts.Close()
	api, err := client.NewAPI(ts.URL, ts.Client())
	if err != nil {
		return err
	}
	fmt.Println("system service up at", ts.URL)

	// --- A small road network for guard-VP routes -------------------
	city, err := roadnet.BuildGrid(roadnet.GridConfig{Cols: 8, Rows: 4, Spacing: 200})
	if err != nil {
		return err
	}

	// --- One minute of convoy driving with VD exchange --------------
	names := []string{"civilian-A", "civilian-B", "police-1"}
	offsets := []float64{0, 50, 100}
	vehicles := make([]*client.Vehicle, len(names))
	for i, name := range names {
		v, err := client.NewVehicle(client.VehicleConfig{Name: name, BytesPerSecond: 5000, Seed: int64(i)})
		if err != nil {
			return err
		}
		if err := v.BeginMinute(0); err != nil {
			return err
		}
		vehicles[i] = v
	}
	for s := 1; s <= 60; s++ {
		digests := make([]vd.VD, len(vehicles))
		for i, v := range vehicles {
			d, err := v.Tick(geo.Pt(float64(s)*12+offsets[i], 0))
			if err != nil {
				return err
			}
			digests[i] = d
		}
		for i, v := range vehicles {
			for j, d := range digests {
				if i != j {
					if err := v.Hear(d, int64(s)); err != nil {
						return err
					}
				}
			}
		}
	}
	for i, v := range vehicles {
		net := city.Net
		if i == 2 {
			net = nil // the police car needs no guard VPs
		}
		actual, guards, err := v.EndMinute(net)
		if err != nil {
			return err
		}
		id := actual.ID()
		fmt.Printf("%s: built VP %x… with %d guard VP(s)\n", names[i], id[:4], len(guards))
	}

	// --- Anonymous uploads ------------------------------------------
	for i, v := range vehicles {
		for _, p := range v.PendingUploads() {
			if i == 2 {
				err = api.UploadTrustedVP("demo-authority", p)
			} else {
				err = api.UploadVP(p)
			}
			if err != nil {
				return err
			}
		}
	}
	st, err := api.StatsFull()
	if err != nil {
		return err
	}
	fmt.Printf("VP database: %d profiles (%d trusted)\n", st.VPs, st.Trusted)

	// --- Investigation ----------------------------------------------
	sol, err := api.OpenSolicitation("demo-authority", 0, -50, 900, 50, 0, 2)
	if err != nil {
		return err
	}
	fmt.Printf("investigation verified %d VPs; the evidence board lists %d at %d units each (IDs only — site/time stay private)\n",
		len(sol.Legitimate), sol.Listed, sol.Units)

	// --- Vehicles answer the evidence board --------------------------
	board, err := api.EvidenceBoard()
	if err != nil {
		return err
	}
	ids := make([]vd.VPID, len(board))
	for i, o := range board {
		ids[i] = o.ID
	}
	for i, v := range vehicles[:2] {
		for id, chunks := range v.MatchSolicitations(ids) {
			q, _ := v.Secret(id)
			units, err := api.DeliverEvidence(id, q, chunks)
			if err != nil {
				return fmt.Errorf("%s video rejected: %w", names[i], err)
			}
			fmt.Printf("%s: delivered video for VP %x… (validated against cascaded hashes; %d units entitled)\n", names[i], id[:4], units)
		}
	}
	if st, err = api.StatsFull(); err != nil {
		return err
	}
	fmt.Printf("evidence desk accepted %d validated videos; quickstart complete\n", st.Evidence.DeliveriesAccepted)
	return nil
}
