package graph

import (
	"math/rand"

	"silentshredder/internal/apprt"
)

// Ratings is a synthetic bipartite rating graph (user, item, rating) in
// the spirit of the Netflix data set the paper's ALS/SGD/WALS/SALS
// workloads consume.
type Ratings struct {
	Users, Items int
	Entries      [][3]uint32 // user, item, rating*1000
}

// GenRatings deterministically generates n ratings with Zipf-skewed item
// popularity (blockbusters get most ratings).
func GenRatings(seed int64, users, items, n int) *Ratings {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(items-1))
	r := &Ratings{Users: users, Items: items}
	for i := 0; i < n; i++ {
		r.Entries = append(r.Entries, [3]uint32{
			uint32(rng.Intn(users)),
			uint32(zipf.Uint64()),
			uint32(1000 + rng.Intn(4000)), // 1.0 .. 5.0
		})
	}
	return r
}

// Factorizer holds the latent-factor model in simulated memory: user and
// item factor matrices (rank K), plus the staged rating triples.
type Factorizer struct {
	rt     *apprt.Runtime
	K      int
	users  int
	items  int
	uf     apprt.Array // users*K
	itf    apprt.Array // items*K
	staged apprt.Array // ratings packed user<<40 | item<<16 | rating
	n      int
}

// NewFactorizer stages the ratings and allocates factor matrices — the
// write-heavy "construction" phase of the MF workloads.
func NewFactorizer(rt *apprt.Runtime, r *Ratings, k int) *Factorizer {
	f := &Factorizer{rt: rt, K: k, users: r.Users, items: r.Items, n: len(r.Entries)}
	f.staged = apprt.NewArray(rt, len(r.Entries))
	for i, e := range r.Entries {
		f.staged.Set(i, uint64(e[0])<<40|uint64(e[1])<<16|uint64(e[2]))
		rt.Compute(3)
	}
	f.uf = apprt.NewArray(rt, r.Users*k)
	f.itf = apprt.NewArray(rt, r.Items*k)
	// Deterministic small initialization.
	for i := 0; i < r.Users*k; i++ {
		f.uf.SetF(i, 0.1+0.001*float64(i%7))
	}
	for i := 0; i < r.Items*k; i++ {
		f.itf.SetF(i, 0.1+0.001*float64(i%5))
	}
	return f
}

func (f *Factorizer) rating(i int) (user, item int, rating float64) {
	packed := f.staged.Get(i)
	return int(packed >> 40), int(packed >> 16 & 0xFFFFFF), float64(packed&0xFFFF) / 1000
}

func (f *Factorizer) predict(user, item int) float64 {
	var dot float64
	for k := 0; k < f.K; k++ {
		dot += f.uf.GetF(user*f.K+k) * f.itf.GetF(item*f.K+k)
	}
	f.rt.Compute(uint64(2 * f.K))
	return dot
}

// SGD runs stochastic gradient descent for iters sweeps and returns the
// final RMSE.
func (f *Factorizer) SGD(iters int, lr, reg float64) float64 {
	for it := 0; it < iters; it++ {
		for i := 0; i < f.n; i++ {
			u, v, r := f.rating(i)
			err := r - f.predict(u, v)
			for k := 0; k < f.K; k++ {
				pu := f.uf.GetF(u*f.K + k)
				qv := f.itf.GetF(v*f.K + k)
				f.uf.SetF(u*f.K+k, pu+lr*(err*qv-reg*pu))
				f.itf.SetF(v*f.K+k, qv+lr*(err*pu-reg*qv))
				f.rt.Compute(8)
			}
		}
	}
	return f.RMSE()
}

// ALS runs a simplified alternating-least-squares style update (a
// gradient flavored coordinate sweep: users updated against fixed items,
// then items against fixed users) for iters rounds and returns the RMSE.
func (f *Factorizer) ALS(iters int, lr, reg float64) float64 {
	for it := 0; it < iters; it++ {
		for phase := 0; phase < 2; phase++ {
			for i := 0; i < f.n; i++ {
				u, v, r := f.rating(i)
				err := r - f.predict(u, v)
				for k := 0; k < f.K; k++ {
					if phase == 0 {
						pu := f.uf.GetF(u*f.K + k)
						qv := f.itf.GetF(v*f.K + k)
						f.uf.SetF(u*f.K+k, pu+lr*(err*qv-reg*pu))
					} else {
						pu := f.uf.GetF(u*f.K + k)
						qv := f.itf.GetF(v*f.K + k)
						f.itf.SetF(v*f.K+k, qv+lr*(err*pu-reg*qv))
					}
					f.rt.Compute(5)
				}
			}
		}
	}
	return f.RMSE()
}

// RMSE computes the root-mean-square prediction error over all ratings.
func (f *Factorizer) RMSE() float64 {
	var se float64
	for i := 0; i < f.n; i++ {
		u, v, r := f.rating(i)
		d := r - f.predict(u, v)
		se += d * d
	}
	f.rt.Compute(uint64(3 * f.n))
	if f.n == 0 {
		return 0
	}
	return sqrt(se / float64(f.n))
}

// sqrt is Newton's method (keeps the package's math dependency minimal
// and the simulated compute cost explicit at call sites).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z -= (z*z - x) / (2 * z)
	}
	return z
}
