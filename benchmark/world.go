package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/fixtures"
	"repro/internal/kb"
)

// The scaled Fig. 2 transport world: the paper's carrier and factory
// sources, each grown by seeded vehicles beneath the classes the
// articulation rules bridge. Prices are drawn in the source's own
// currency so that both sources cover the same euro range once the
// functional rules convert them — a filter constant then selects from
// both sources alike.
const (
	batchVehicles = 2000 // vehicles per /mutate during the load
	euroLo        = 1000.0
	euroHi        = 100000.0
	// Churn vehicles are priced above every load vehicle, so the
	// "FILTER ?p < T" queries running beside the writes keep one fixed
	// answer while still paying for every invalidation.
	churnEuroLo = 160000.0
	churnEuroHi = 320000.0
)

var (
	carrierClasses = []string{"PassengerCar", "SUV", "Trucks"}
	factoryClasses = []string{"Truck", "GoodsVehicle", "Vehicle"}
)

// batch is one /mutate request's worth of facts for one source, and
// the request body that carries them (encoded once, outside any timing).
type batch struct {
	source string
	facts  []kb.Fact
	body   []byte
}

// carrierVehicle emits the four facts of one carrier vehicle; the price
// is given in euros and stored in pounds.
func carrierVehicle(rng *rand.Rand, subject string, lo, hi float64) []kb.Fact {
	euro := lo + rng.Float64()*(hi-lo)
	return []kb.Fact{
		{Subject: subject, Predicate: "InstanceOf", Object: kb.Term(carrierClasses[rng.Intn(len(carrierClasses))])},
		{Subject: subject, Predicate: "Price", Object: kb.Number(euro * fixtures.PoundPerEuro)},
		{Subject: subject, Predicate: "Owner", Object: kb.String("owner" + strconv.Itoa(rng.Intn(5000)))},
		{Subject: subject, Predicate: "Model", Object: kb.String("model" + strconv.Itoa(rng.Intn(200)))},
	}
}

// factoryVehicle emits the three facts of one factory vehicle, priced
// in guilders.
func factoryVehicle(rng *rand.Rand, subject string) []kb.Fact {
	euro := euroLo + rng.Float64()*(euroHi-euroLo)
	return []kb.Fact{
		{Subject: subject, Predicate: "InstanceOf", Object: kb.Term(factoryClasses[rng.Intn(len(factoryClasses))])},
		{Subject: subject, Predicate: "Price", Object: kb.Number(euro * fixtures.GuilderPerEuro)},
		{Subject: subject, Predicate: "Weight", Object: kb.Number(float64(800 + rng.Intn(39200)))},
	}
}

// loadBatches generates the world load: vehicles per source, in
// batchVehicles-sized /mutate batches, carrier first.
func loadBatches(seed int64, vehicles int) []batch {
	rng := rand.New(rand.NewSource(seed))
	var out []batch
	for _, source := range []string{"carrier", "factory"} {
		for from := 0; from < vehicles; from += batchVehicles {
			b := batch{source: source}
			for i := from; i < min(from+batchVehicles, vehicles); i++ {
				if source == "carrier" {
					b.facts = append(b.facts, carrierVehicle(rng, fmt.Sprintf("c%06d", i), euroLo, euroHi)...)
				} else {
					b.facts = append(b.facts, factoryVehicle(rng, fmt.Sprintf("f%06d", i))...)
				}
			}
			b.body = mutateBody(b)
			out = append(out, b)
		}
	}
	return out
}

// churnBatchVehicles × 4 facts is one churn /mutate (128 facts).
const churnBatchVehicles = 32

// churnBatch generates the i-th write of the churn workload: new
// carrier vehicles that no load vehicle shares a subject with.
func churnBatch(seed int64, i int) batch {
	rng := rand.New(rand.NewSource(seed ^ int64(i+1)*0x9E3779B9))
	b := batch{source: "carrier"}
	for v := 0; v < churnBatchVehicles; v++ {
		b.facts = append(b.facts, carrierVehicle(rng, fmt.Sprintf("x%05d_%02d", i, v), churnEuroLo, churnEuroHi)...)
	}
	b.body = mutateBody(b)
	return b
}

// wireValue and wireFact mirror oniond's /mutate and /query JSON.
type wireValue struct {
	Kind  string `json:"kind"`
	Value any    `json:"value"`
}

type wireFact struct {
	Subject   string    `json:"subject"`
	Predicate string    `json:"predicate"`
	Object    wireValue `json:"object"`
}

func toWire(v kb.Value) wireValue {
	switch v.Kind {
	case kb.KindNumber:
		return wireValue{Kind: "number", Value: v.Num}
	case kb.KindString:
		return wireValue{Kind: "string", Value: v.Str}
	default:
		return wireValue{Kind: "term", Value: v.Str}
	}
}

// mutateBody encodes a batch as a /mutate request body.
func mutateBody(b batch) []byte {
	facts := make([]wireFact, len(b.facts))
	for i, f := range b.facts {
		facts[i] = wireFact{Subject: f.Subject, Predicate: f.Predicate, Object: toWire(f.Object)}
	}
	body, err := json.Marshal(struct {
		Source string     `json:"source"`
		Facts  []wireFact `json:"facts"`
	}{b.source, facts})
	if err != nil {
		panic(err) // strings and finite floats always marshal
	}
	return body
}

// The four query templates, all against the transport articulation and
// all filtering on the converted price.
type template struct {
	name string
	sel  string // SELECT ... WHERE ... without the filter; ?p is the second column
	op   string // filter operator on ?p
}

const priceColumn = 1 // of ?p in every template's answer

var (
	tmplSel  = template{"Q-sel", "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p", "<"}
	tmplJoin = template{"Q-join", "SELECT ?x ?p ?o WHERE ?x InstanceOf Cars . ?x Price ?p . ?x Owner ?o . ?x Model ?m", "<"}
	tmplRoot = template{"Q-root", "SELECT ?x ?p WHERE ?x InstanceOf Transportation . ?x Price ?p", "<"}
	tmplWide = template{"Q-wide", "SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p", ">"}
	// tmplAcked reads back all four facts of every churn vehicle: the
	// durability check after the kill.
	tmplAcked = template{"Q-acked", "SELECT ?x ?p ?o ?m WHERE ?x InstanceOf Transportation . ?x Price ?p . ?x Owner ?o . ?x Model ?m", ">"}
)

func (t template) text(threshold float64) string {
	return t.sel + " . FILTER ?p " + t.op + " " + strconv.FormatFloat(threshold, 'f', -1, 64)
}
