// Package fx reproduces the foreign-exchange application of section
// 5.6 of "Free Parallel Data Mining": derive ten percentage-change
// features from 27 years of daily exchange rates, predict tomorrow's
// movement with NyuMiner-RS, select only high-confidence rules
// (Cmin=80%, Smin=1%), and trade the simple convert-and-return
// strategy over the 13-year test half. The original rate history is
// replaced by a mean-reverting random walk per currency pair, so rule
// selection finds a few high-confidence low-support pockets and the
// strategy earns modest multi-percent gains, as in table 5.6.
package fx

import (
	"math"
	"math/rand"

	"freepdm/internal/classify"
	"freepdm/internal/classify/nyuminer"
	"freepdm/internal/dataset"
)

// Pair describes one currency pair data set (table 5.5).
type Pair struct {
	Name string
	Long string
	Days int
	Seed int64
}

// Pairs are the five currency pairs of table 5.5 with their data set
// sizes.
var Pairs = []Pair{
	{"yu", "Japanese Yen vs. U.S. Dollar", 5904, 109},
	{"du", "Deutsche Mark vs. U.S. Dollar", 6076, 126},
	{"yd", "Japanese Yen vs. Deutsche Mark", 6162, 107},
	{"fu", "French Franc vs. U.S. Dollar", 6344, 106},
	{"up", "U.S. Dollar vs. Great Britain Sterling", 6419, 124},
}

// FeatureNames are the ten derived variables of section 5.6.1, in
// order.
var FeatureNames = []string{
	"one", "two", "three", "four", "five",
	"average", "weighted", "month", "six-month", "year",
}

// GenerateRates produces a synthetic daily exchange-rate series: a
// geometric random walk whose next-day direction weakly mean-reverts
// against the trailing week's average change, leaving high-confidence
// pockets for the rule selector to find.
func GenerateRates(days int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	rates := make([]float64, days)
	rates[0] = 100
	const vol = 0.006
	for t := 1; t < days; t++ {
		// Average percentage change over the trailing 5 days.
		avg5 := 0.0
		if t > 5 {
			avg5 = (rates[t-1] - rates[t-6]) / rates[t-6] / 5
		}
		// The signal lives only in the tails: after an unusually bad
		// (good) trailing week the next day reverts with probability
		// ~0.69 (0.31); ordinary days are a fair coin. Tail weeks are
		// ~4-5%% of days, so high-confidence rules cover few days.
		pUp := 0.5
		const tail = 0.0054
		if avg5 > tail {
			pUp = 0.31
		} else if avg5 < -tail {
			pUp = 0.69
		}
		mag := math.Abs(rng.NormFloat64()) * vol
		if rng.Float64() < pUp {
			rates[t] = rates[t-1] * (1 + mag)
		} else {
			rates[t] = rates[t-1] * (1 - mag)
		}
	}
	return rates
}

// warmup is how many leading days the year-change feature consumes.
const warmup = 252

// BuildDataset derives the ten features for each tradable day and
// labels it with tomorrow's movement (up=1, down=0). Row i of the
// dataset corresponds to rate index i+warmup; the last rate is
// consumed by the label.
func BuildDataset(name string, rates []float64) *dataset.Dataset {
	d := &dataset.Dataset{Name: name, Classes: []string{"down", "up"}}
	for _, f := range FeatureNames {
		d.Attrs = append(d.Attrs, dataset.Attribute{Name: f, Kind: dataset.Numeric})
	}
	pct := func(t, back int) float64 {
		return (rates[t] - rates[t-back]) / rates[t-back] * 100
	}
	for t := warmup; t < len(rates)-1; t++ {
		avg := 0.0
		wavg := 0.0
		wsum := 0.0
		for k := 1; k <= 5; k++ {
			c := pct(t, k)
			avg += c / 5
			w := float64(6 - k)
			wavg += w * c
			wsum += w
		}
		vals := []float64{
			pct(t, 1), pct(t, 2), pct(t, 3), pct(t, 4), pct(t, 5),
			avg, wavg / wsum, pct(t, 21), pct(t, 126), pct(t, 252),
		}
		class := 0
		if rates[t+1] > rates[t] {
			class = 1
		}
		d.Instances = append(d.Instances, dataset.Instance{Vals: vals, Class: class})
	}
	return d
}

// SplitHalves divides the rows chronologically: the first half
// (roughly 1972–1984) trains, the second (1985–1997) tests.
func SplitHalves(d *dataset.Dataset) (train, test []int) {
	n := d.Len()
	for i := 0; i < n/2; i++ {
		train = append(train, i)
	}
	for i := n / 2; i < n; i++ {
		test = append(test, i)
	}
	return train, test
}

// Result summarizes one currency pair's row of table 5.6.
type Result struct {
	Pair          string
	RulesSelected int
	DaysCovered   int
	Accuracy      float64 // on the covered days
	GainFirst     float64 // % gain starting in the first currency
	GainSecond    float64 // % gain starting in the second currency
	AvgGain       float64
}

// SelectTradingRules trains NyuMiner-RS on the training half and
// returns the rule list filtered at the given thresholds, excluding
// plurality-level rules as the text prescribes (Cmin above root
// confidence, Smin above 1/N).
func SelectTradingRules(d *dataset.Dataset, train []int, trials int, cmin, smin float64, rng *rand.Rand) *classify.RuleList {
	// The figure 5.6 tree is shallow and the selected rules conjoin at
	// most a few conditions; deep pure nodes are fitted noise, so the
	// trader's trees are depth-bounded.
	cfg := nyuminer.Config{MaxDepth: 3}
	rl := nyuminer.TrainRS(d, train, trials, cmin, smin, cfg, rng)
	rl.Fallback = -1 // abstain on uncovered days: traders hold
	return rl
}

// Trade runs the simple strategy of section 5.6.3 starting with one
// unit of money in the given currency (0 = first currency, 1 =
// second): on covered days, when the predicted movement is adverse to
// the held currency, convert today and convert back tomorrow.
// It returns the final wealth as a multiple of the start.
//
// The rate is quoted as units of the second currency per unit of the
// first, so a predicted "up" favors holding the first currency.
func Trade(d *dataset.Dataset, test []int, rates []float64, rl *classify.RuleList, holding int) float64 {
	wealth := 1.0
	for _, i := range test {
		pred, covered := rl.Classify(d.Instances[i].Vals)
		if !covered {
			continue
		}
		today := rates[i+warmup]
		tomorrow := rates[i+warmup+1]
		if holding == 0 && pred == 0 {
			// Rate predicted down: the first currency will weaken, so
			// shelter in the second for a day.
			wealth *= today / tomorrow
		}
		if holding == 1 && pred == 1 {
			// Rate predicted up: the second currency weakens against
			// the first; hold the first for a day.
			wealth *= tomorrow / today
		}
	}
	return wealth
}

// Evaluate reproduces one row of table 5.6 for a pair.
func Evaluate(p Pair, trials int, cmin, smin float64) Result {
	rates := GenerateRates(p.Days+warmup+1, p.Seed)
	d := BuildDataset(p.Name, rates)
	train, test := SplitHalves(d)
	rng := rand.New(rand.NewSource(p.Seed))
	rl := SelectTradingRules(d, train, trials, cmin, smin, rng)

	covered, correct := 0, 0
	for _, i := range test {
		pred, ok := rl.Classify(d.Instances[i].Vals)
		if !ok {
			continue
		}
		covered++
		if pred == d.Class(i) {
			correct++
		}
	}
	res := Result{
		Pair:          p.Name,
		RulesSelected: len(rl.Rules),
		DaysCovered:   covered,
	}
	if covered > 0 {
		res.Accuracy = float64(correct) / float64(covered)
	}
	res.GainFirst = (Trade(d, test, rates, rl, 0) - 1) * 100
	res.GainSecond = (Trade(d, test, rates, rl, 1) - 1) * 100
	res.AvgGain = (res.GainFirst + res.GainSecond) / 2
	return res
}
