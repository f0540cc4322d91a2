package speedup

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/malleable-sched/malleable/internal/stepfunc"
)

// ModelNames lists the model spec forms accepted by ParseModel, for help
// texts and error messages.
func ModelNames() []string {
	return []string{"linear", "powerlaw[:alpha]", "amdahl[:sigma]", "platform:cap@t0,cap@t1,..."}
}

// ParseModel resolves a model spec string:
//
//	linear                      the paper's linear-cap model (also "")
//	powerlaw                    concave power law with the default exponent
//	powerlaw:0.6                concave power law with exponent 0.6
//	amdahl                      Amdahl's law with the default serial fraction
//	amdahl:0.05                 Amdahl's law with serial fraction 0.05
//	platform:8@0,4@10,8@20      time-varying capacity: 8 procs on [0,10),
//	                            4 on [10,20), 8 from 20 on (linear per task)
//
// Everything after "platform:" is a comma-separated list of capacity@time
// steps whose first time must be 0 and whose times must strictly increase.
func ParseModel(spec string) (Model, error) {
	name, arg, hasArg := strings.Cut(strings.TrimSpace(spec), ":")
	switch strings.ToLower(name) {
	case "", "linear":
		if hasArg {
			return nil, fmt.Errorf("speedup: the linear model takes no parameter, got %q", spec)
		}
		return LinearCap{}, nil
	case "powerlaw":
		alpha := 0.0
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(v > 0) || v > 1 {
				return nil, fmt.Errorf("speedup: powerlaw exponent must be in (0, 1], got %q", arg)
			}
			alpha = v
		}
		return PowerLaw{Alpha: alpha}, nil
	case "amdahl":
		sigma := 0.0
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(v > 0) || v >= 1 {
				return nil, fmt.Errorf("speedup: amdahl serial fraction must be in (0, 1), got %q", arg)
			}
			sigma = v
		}
		return Amdahl{Sigma: sigma}, nil
	case "platform":
		if !hasArg || strings.TrimSpace(arg) == "" {
			return nil, fmt.Errorf("speedup: platform model needs cap@time steps, e.g. platform:8@0,4@10")
		}
		profile, err := parseProfile(arg)
		if err != nil {
			return nil, err
		}
		return Platform{Profile: profile}, nil
	default:
		return nil, fmt.Errorf("speedup: unknown model %q (want one of %s)", spec, strings.Join(ModelNames(), ", "))
	}
}

// parseProfile parses "cap@t0,cap@t1,..." into a step function.
func parseProfile(arg string) (*stepfunc.StepFunc, error) {
	var times, values []float64
	for _, step := range strings.Split(arg, ",") {
		capStr, tStr, ok := strings.Cut(strings.TrimSpace(step), "@")
		if !ok {
			return nil, fmt.Errorf("speedup: platform step %q is not cap@time", step)
		}
		c, err := strconv.ParseFloat(capStr, 64)
		if err != nil || !(c >= 0) {
			return nil, fmt.Errorf("speedup: platform step %q has invalid capacity", step)
		}
		t, err := strconv.ParseFloat(tStr, 64)
		if err != nil || t < 0 {
			return nil, fmt.Errorf("speedup: platform step %q has invalid time", step)
		}
		times = append(times, t)
		values = append(values, c)
	}
	profile, err := stepfunc.FromSteps(times, values)
	if err != nil {
		return nil, fmt.Errorf("speedup: platform profile: %w", err)
	}
	return profile, nil
}
