package main

import (
	"bytes"
	"encoding/json"
	"testing"
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
				keys[unitKey(seed, eng)] = true
			}
		}
		if want := len(spec.Seeds) * len(spec.Engines); len(keys) != want {
			t.Fatalf("accepted spec with %d seeds × %d engines names %d distinct units, want %d",
				len(spec.Seeds), len(spec.Engines), len(keys), want)
		}
	})
}
