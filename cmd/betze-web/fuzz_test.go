package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/harness"
)

// FuzzCampaignSpec feeds arbitrary bodies through the submit path's decode
// (unknown fields refused) and validate. Neither may panic, and a spec that
// validate accepts must name len(seeds)×len(engines) distinct units: a
// repeated seed or engine would collapse two units onto one checkpoint.
func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(`{"dataset":{"source":"twitter","docs":1000,"seed":3},"preset":"expert","seeds":[1,2],"engines":["joda","jq"]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec campaignSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if spec.validate() != nil {
			return
		}
		keys := make(map[string]bool)
		for _, seed := range spec.Seeds {
			for _, eng := range spec.Engines {
				keys[spec.unit(seed, eng, harness.Import{Name: "Twitter"}, nil, "").Key()] = true
			}
		}
		if want := len(spec.Seeds) * len(spec.Engines); len(keys) != want {
			t.Fatalf("accepted spec with %d seeds × %d engines names %d distinct units, want %d",
				len(spec.Seeds), len(spec.Engines), len(keys), want)
		}
	})
}

// FuzzGenerateForm feeds arbitrary field values through parseGenerateForm.
// It may not panic, and a form it accepts must hold docs in 1..1000000 and
// queries in 0..200, and name a known source and preset: the one the form
// asked for, or the default when the field was empty.
func FuzzGenerateForm(f *testing.F) {
	f.Add("1000", "7", "20", "twitter", "expert")
	f.Fuzz(func(t *testing.T, docs, seed, queries, source, preset string) {
		r := &http.Request{Form: url.Values{
			"docs": {docs}, "seed": {seed}, "queries": {queries}, "source": {source}, "preset": {preset},
		}}
		form, ferr := parseGenerateForm(r)
		if ferr != nil {
			return
		}
		if form.docs < 1 || form.docs > 1_000_000 {
			t.Fatalf("accepted docs=%q as %d", docs, form.docs)
		}
		if form.queries < 0 || form.queries > 200 {
			t.Fatalf("accepted queries=%q as %d", queries, form.queries)
		}
		if source == "" {
			source = "twitter"
		}
		if strings.ToLower(form.source.Name) != source {
			t.Fatalf("accepted source=%q as %q", source, form.source.Name)
		}
		if preset == "" {
			preset = core.Intermediate.Name
		}
		if form.preset.Name != preset || !slices.Contains(core.Presets(), form.preset) {
			t.Fatalf("accepted preset=%q as %+v", preset, form.preset)
		}
	})
}
