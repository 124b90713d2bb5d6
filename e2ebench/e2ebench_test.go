package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"buffopt/internal/core"
	"buffopt/internal/netfmt"
	"buffopt/internal/rctree"
)

// tinySizes shrink every input so each workload runs end to end in well
// under a second.
var tinySizes = sizes{
	coldPool:    16,
	largePool:   4,
	hotSet:      8,
	ecoSessions: 2,
	digestN:     4,
	digestSteps: 2,
	sampleN:     3,
	setupReps:   2,
}

var workloadNames = []string{"serve-cold", "serve-hot", "serve-large", "eco-fresh"}

func runTiny(t *testing.T, workload string, seed int64, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	seconds := 0.6
	if workload == "serve-large" {
		seconds = 4 // the digested prefix must be answered, also under -race
	}
	cfg := config{workload: workload, seed: seed, seconds: seconds, trace: trace, sizes: tinySizes, spansDir: t.TempDir()}
	res, err := bench(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v\n%s", workload, seed, trace, err, out.String())
	}
	return res, out.String()
}

// declared reads the metrics BENCHMARK.json names, by name to unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestWorkloadsEndToEnd(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, out := runTiny(t, w, 1, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %v: correct %v, %d of %d failed\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace %v: metric %s = %+v, declared with unit %s", w, trace, name, got, unit)
				}
			}
			if !strings.Contains(out, "ledger: attempted") {
				t.Errorf("%s: no ledger line\n%s", w, out)
			}
		}
	}
}

var digestLine = regexp.MustCompile(`answer_digest ([0-9a-f]{16})`)

func TestAnswerDigestRepeatsPerSeed(t *testing.T) {
	for _, w := range workloadNames {
		var digests []string
		for _, seed := range []int64{3, 3, 4} {
			_, out := runTiny(t, w, seed, false)
			m := digestLine.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("%s: no answer_digest line\n%s", w, out)
			}
			digests = append(digests, m[1])
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: seed 3 digests %s and %s differ", w, digests[0], digests[1])
		}
		if digests[0] == digests[2] {
			t.Errorf("%s: seeds 3 and 4 share digest %s", w, digests[0])
		}
	}
}

// stream renders the first requests of a workload's input stream.
func stream(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	switch workload {
	case "eco-fresh":
		nets, err := newEcoInputs(ecoCorpusSeed, tinySizes.ecoSessions)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range nets {
			b.Write(n.create)
			g := newEditGen(seed, i, n)
			for j := 0; j < 50; j++ {
				e, err := json.Marshal(g.next())
				if err != nil {
					t.Fatal(err)
				}
				b.Write(e)
			}
		}
	default:
		cfg := config{workload: workload, seed: seed, sizes: tinySizes}
		in, err := newInputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			b.Write(in.body(i))
		}
	}
	return b.Bytes()
}

func TestStreamIsSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := stream(t, w, 5), stream(t, w, 5), stream(t, w, 6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 5 gave two different request streams", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 5 and 6 gave the same request stream", w)
		}
	}
}

func TestColdNeverRepeatsANet(t *testing.T) {
	in, err := newInputs(config{workload: "serve-cold", seed: 2, sizes: tinySizes})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	// Five epochs over the tiny pool: the wrap-around must still be new.
	for i := 0; i < 5*tinySizes.coldPool; i++ {
		tr, err := netfmt.Read(strings.NewReader(in.netText(i)))
		if err != nil {
			t.Fatal(err)
		}
		h := core.Problem{Tree: tr, Library: benchLibrary(), Params: benchParams(), Objective: core.MinBuffersNoise}.CanonicalHash()
		if j, dup := seen[h]; dup {
			t.Fatalf("requests %d and %d post the same net", j, i)
		}
		seen[h] = i
	}
}

func TestEcoEditsNeverRepeat(t *testing.T) {
	nets, err := newEcoInputs(ecoCorpusSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := nets[0]
	g := newEditGen(9, 0, n)
	seen := map[string]bool{}
	for j := 0; j < 5000; j++ {
		e := g.next()
		key, err := json.Marshal(e) // node, op and value(s)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(key)] {
			t.Fatalf("edit %d repeats %s", j, key)
		}
		seen[string(key)] = true
		if e.Op != "set-wire" && n.replica.Node(rctree.NodeID(e.Node)).Kind != rctree.Sink {
			t.Fatalf("edit %d: %s on node %d, which is no sink", j, e.Op, e.Node)
		}
	}
}
