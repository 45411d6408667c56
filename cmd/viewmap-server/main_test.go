package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// TestCheckWALFlags pins the durable-mode flag gate: each of walFlags
// set explicitly without -wal is refused — even when set to its
// default — and every combination with -wal, or without any of them,
// starts.
func TestCheckWALFlags(t *testing.T) {
	cases := []struct {
		args    []string
		refused string // the flag named in the refusal; empty = accepted
	}{
		{nil, ""},
		{[]string{"-addr", ":0", "-dsrc-range", "300"}, ""},
		{[]string{"-retention", "2"}, "-retention"},
		{[]string{"-wal-sync", "5ms"}, "-wal-sync"},
		{[]string{"-snapshot-interval", "1m"}, "-snapshot-interval"},
		{[]string{"-resident-minutes", "0"}, "-resident-minutes"},
		{[]string{"-wal", "", "-retention", "2"}, "-retention"},
		{[]string{"-wal", "x.wal", "-retention", "2", "-wal-sync", "5ms",
			"-snapshot-interval", "0", "-resident-minutes", "3"}, ""},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("viewmap-server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.String("addr", ":8440", "")
		fs.Float64("dsrc-range", 0, "")
		wal := fs.String("wal", "", "")
		fs.Duration("wal-sync", 0, "")
		fs.Duration("snapshot-interval", time.Minute, "")
		fs.Int("retention", 0, "")
		fs.Int("resident-minutes", 0, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		err := checkWALFlags(fs, *wal)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%q refused: %v", c.args, err)
		case c.refused != "" && err == nil:
			t.Errorf("%q accepted; %s without -wal must be refused", c.args, c.refused)
		case c.refused != "" && !strings.HasPrefix(err.Error(), c.refused+" requires -wal"):
			t.Errorf("%q: refusal %q does not name %s", c.args, err, c.refused)
		}
	}
}
