package checkbounds

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestRowsCoverAllTables(t *testing.T) {
	rows := Rows()
	count := map[string]int{}
	seen := map[string]bool{}
	for _, s := range rows {
		count[s.Table]++
		key := s.Table + "/" + s.Model
		if seen[key] {
			t.Errorf("duplicate spec %s", key)
		}
		seen[key] = true
		if len(s.Sizes) < 2 {
			t.Errorf("%s row %d: ladder %v too short for a flatness check", s.Table, s.Row, s.Sizes)
		}
		if s.Bound == nil || s.Run == nil {
			t.Fatalf("%s row %d: missing Bound or Run", s.Table, s.Row)
		}
	}
	if count["1.1"] != 5 || count["1.2"] != 3 || count["1.3"] != 3 {
		t.Fatalf("row counts per table = %v, want 5/3/3", count)
	}
}

// TestMeasureDeterministicAndTrimmed checks the two contracts Measure
// makes: identical reruns give identical charged counters, and capping
// the ladder with maxN never changes the measurements of surviving
// sizes.
func TestMeasureDeterministicAndTrimmed(t *testing.T) {
	spec := Rows()[0] // Table 1.1 CRCW — the fastest row
	full := Measure(context.Background(), spec, 256, Tolerance)
	again := Measure(context.Background(), spec, 256, Tolerance)
	if len(full.Points) != 2 {
		t.Fatalf("maxN=256 kept %d points, want 2", len(full.Points))
	}
	for i := range full.Points {
		if full.Points[i] != again.Points[i] {
			t.Fatalf("rerun diverged at point %d: %+v vs %+v", i, full.Points[i], again.Points[i])
		}
	}
	trimmed := Measure(context.Background(), spec, 128, Tolerance)
	if len(trimmed.Points) != 1 || trimmed.Points[0] != full.Points[0] {
		t.Fatalf("trimming the ladder changed the first point: %+v vs %+v",
			trimmed.Points, full.Points[0])
	}
	if !full.Pass || full.Flatness <= 0 {
		t.Fatalf("CRCW row maxima should pass flatly, got %+v", full)
	}
}

func TestFlatnessMath(t *testing.T) {
	pts := []Point{{Ratio: 2}, {Ratio: 3}, {Ratio: 2.5}}
	if got := flatness(pts); got != 1.5 {
		t.Fatalf("flatness = %v, want 1.5", got)
	}
	if flatness(nil) != 0 {
		t.Fatal("flatness of no points must be 0")
	}
}

// TestMarkdownRoundTrip renders a synthetic report and parses it back,
// pinning the contract between RenderMarkdown and ParseExperiments that
// the golden test depends on.
func TestMarkdownRoundTrip(t *testing.T) {
	rep := Report{Schema: Schema, Tolerance: Tolerance, Rows: []Result{
		{Table: "1.1", Row: 1, Model: "CRCW PRAM", Claim: "O(lg n)", Flatness: 1.18,
			Points: []Point{{N: 128, Time: 79}, {N: 256, Time: 98}}},
		{Table: "1.1", Row: 3, Model: "hypercube", Claim: "O(lg n lglg n)", Flatness: 1.3,
			Points: []Point{{N: 128, Time: 2061}, {N: 256, Time: 1793}}},
		{Table: "1.3", Row: 2, Model: "CREW PRAM", Claim: "Theta(lg n)", Flatness: 1.1,
			Points: []Point{{N: 64, Time: 105}}},
	}}
	var buf bytes.Buffer
	if err := RenderMarkdown(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ParseExperiments(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d rows, want 3:\n%s", len(got), buf.String())
	}
	first := got[0]
	if first.Table != "1.1" || first.Row != 1 || first.Model != "CRCW PRAM" {
		t.Fatalf("row identity lost: %+v", first)
	}
	if first.Times[128] != 79 || first.Times[256] != 98 {
		t.Fatalf("times lost: %+v", first.Times)
	}
	last := got[2]
	if last.Table != "1.3" || last.Times[64] != 105 {
		t.Fatalf("table 1.3 row lost: %+v", last)
	}
	if _, ok := last.Times[128]; ok {
		t.Fatal("size never measured must not parse as a time")
	}
}

// TestParseIgnoresForeignTables pins that numeric markdown tables in
// other sections of EXPERIMENTS.md are never misread as golden rows.
func TestParseIgnoresForeignTables(t *testing.T) {
	doc := "### Table 1.1 — row maxima\n\n" +
		"| row | model | claim | t(n=128) | flatness |\n" +
		"|--|--|--|--|--|\n" +
		"| 1 | CRCW PRAM | O(lg n) | 79 | 1.1 |\n\n" +
		"## Runtime\n\n" +
		"| loop size n | pool |\n" +
		"|--|--|\n" +
		"| 256 | 3.3 µs |\n"
	rows, err := ParseExperiments(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Row != 1 || rows[0].Times[128] != 79 {
		t.Fatalf("parsed %+v, want exactly the one table 1.1 row", rows)
	}
}

func TestReportJSONSchema(t *testing.T) {
	rep := Report{Schema: Schema, Tolerance: Tolerance, Rows: []Result{{
		Table: "1.1", Row: 1, Model: "CRCW PRAM", Pass: true,
		Points: []Point{{N: 128, Time: 79, Bound: 7, Ratio: 79.0 / 7}},
	}}}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Schema != Schema || len(back.Rows) != 1 || back.Rows[0].Points[0].Time != 79 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	for _, key := range []string{`"schema"`, `"tolerance"`, `"rows"`, `"ratio"`} {
		if !strings.Contains(buf.String(), key) {
			t.Fatalf("JSON missing %s:\n%s", key, buf.String())
		}
	}
}
