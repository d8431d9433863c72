package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/tensor"
)

// workload is one traffic mix. The names are fixed: later issues cite them.
type workload struct {
	name      string
	family    models.Family
	precision inference.Precision
	// tenants are personalized on the system under test before the window;
	// tierTenants on the second, budgeted server the traced run times
	// promotions on beside an all-hot workload (0 on tenant_churn, whose own
	// server is budgeted).
	tenants, tierTenants int
	zipfS                float64
	samples              int           // samples per predict request
	linger               time.Duration // 0: the server default (2ms)
	shards               int           // > 0: JSON over HTTP through the router
	churn                bool          // budgeted server, open loop, writes beside reads
}

var workloads = []workload{
	{name: "conv_b16", family: models.ResNet, tenants: 20, tierTenants: 4, zipfS: 1.2, samples: 16},
	{name: "conv_b16_int8", family: models.ResNet, precision: inference.Int8, tenants: 20, tierTenants: 4, zipfS: 1.2, samples: 16},
	{name: "router_http", family: models.Transformer, tenants: 24, tierTenants: 4, zipfS: 1.2, samples: 1, linger: time.Millisecond, shards: 3},
	{name: "tenant_churn", family: models.Transformer, tenants: 64, zipfS: 1.1, samples: 1, churn: true},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	numClasses       = 10
	classesPerTenant = 3
	inputsPerTenant  = 2 // distinct request inputs per tenant, cycled (each is checked against a dense forward pass)

	// The open loop: a fixed, sub-saturation predict rate with one
	// fresh-tenant personalization every churnWriteEvery beside it.
	churnRate       = 300.0
	churnWriteEvery = 500 * time.Millisecond
	churnInFlight   = 32

	// closedSeqLen is the per-client request sequence length; a client that
	// outruns it wraps around.
	closedSeqLen = 1 << 13
)

// tenant is one class set with its pre-generated requests. want is filled
// after prewarm, from the masked-dense model the tenant was pruned to.
type tenant struct {
	classes []int
	key     string
	inputs  []*tensor.Tensor // each [samples,C,H,W]
	bodies  [][]byte         // the same inputs as /predict JSON bodies
	want    [][]int
}

// reqRef is one request of a trace: which tenant, which of its inputs.
type reqRef struct {
	tenant uint16
	input  uint8
}

// trace is everything the program under test will be given, generated from
// the seed before any clock starts.
type trace struct {
	tenants []*tenant // index = Zipf rank: tenant 0 is the hottest
	tier    []*tenant
	fresh   [][]int    // class sets personalized inside the churn window
	seqs    [][]reqRef // one request sequence per closed-loop client, or one open-loop schedule
	hash    string
}

// classSets enumerates every classesPerTenant-subset of the classes.
func classSets() [][]int {
	var out [][]int
	for a := 0; a < numClasses; a++ {
		for b := a + 1; b < numClasses; b++ {
			for c := b + 1; c < numClasses; c++ {
				out = append(out, []int{a, b, c})
			}
		}
	}
	return out
}

func keyOf(classes []int) string {
	parts := make([]string, len(classes))
	for i, c := range classes {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// predictBody is the /predict request body internal/api decodes.
type predictBody struct {
	Classes []int       `json:"classes"`
	Inputs  [][]float64 `json:"inputs"`
}

// genTrace derives the whole trace from the seed. seqs holds nSeq sequences
// of seqLen requests each, tenants drawn Zipf(w.zipfS) by rank.
func genTrace(w workload, ds *data.Dataset, seed int64, nSeq, seqLen int, withBodies bool) (*trace, error) {
	// The tenant population is fixture: the same class sets on every seed, so
	// user_acc and the byte counts answer to the code alone. The seed decides
	// which tenant holds which popularity rank, and everything they are sent.
	sets := classSets()
	rand.New(rand.NewSource(fixtureSeed+3)).Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	if w.tenants+w.tierTenants > len(sets) {
		return nil, fmt.Errorf("%s wants %d tenants, only %d class sets exist", w.name, w.tenants+w.tierTenants, len(sets))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(w.tenants, func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })

	tr := &trace{}
	h := sha256.New()
	vol := ds.Channels * ds.H * ds.W
	var word [8]byte
	newTenant := func(classes []int) (*tenant, error) {
		t := &tenant{classes: classes, key: keyOf(classes)}
		per := (inputsPerTenant*w.samples + len(classes) - 1) / len(classes)
		split := ds.MakeSplit(fmt.Sprintf("bench-%d/%s", seed, t.key), classes, per)
		order := rng.Perm(split.Len())
		for j := 0; j < inputsPerTenant; j++ {
			x := split.Subset(order[j*w.samples : (j+1)*w.samples]).X
			t.inputs = append(t.inputs, x)
			for _, v := range x.Data {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
			if withBodies {
				rows := make([][]float64, w.samples)
				for i := range rows {
					rows[i] = x.Data[i*vol : (i+1)*vol]
				}
				body, err := json.Marshal(predictBody{Classes: classes, Inputs: rows})
				if err != nil {
					return nil, err
				}
				t.bodies = append(t.bodies, body)
				h.Write(body)
			}
		}
		fmt.Fprintf(h, "tenant %s\n", t.key)
		return t, nil
	}
	for _, classes := range sets[:w.tenants+w.tierTenants] {
		t, err := newTenant(classes)
		if err != nil {
			return nil, err
		}
		if len(tr.tenants) < w.tenants {
			tr.tenants = append(tr.tenants, t)
		} else {
			tr.tier = append(tr.tier, t)
		}
	}
	if w.churn {
		tr.fresh = sets[w.tenants+w.tierTenants:]
		for _, classes := range tr.fresh {
			fmt.Fprintf(h, "fresh %s\n", keyOf(classes))
		}
	}

	for c := 0; c < nSeq; c++ {
		zipf := rand.NewZipf(rand.New(rand.NewSource(rng.Int63())), w.zipfS, 1, uint64(w.tenants-1))
		seq := make([]reqRef, seqLen)
		for i := range seq {
			seq[i] = reqRef{tenant: uint16(zipf.Uint64()), input: uint8(rng.Intn(inputsPerTenant))}
			h.Write([]byte{byte(seq[i].tenant), byte(seq[i].tenant >> 8), seq[i].input})
		}
		tr.seqs = append(tr.seqs, seq)
	}
	tr.hash = hex.EncodeToString(h.Sum(nil)[:8])
	return tr, nil
}
