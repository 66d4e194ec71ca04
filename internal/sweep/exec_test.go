package sweep

// Execute runs one scenario alone, as a one-lane group, and returns its
// record: the reference the suites pin lane groups, the scheduler, the
// artifact cache and the golden files against.
func Execute(sc Scenario, opt ExecOptions) (Record, error) {
	recs, err := execute([]Scenario{sc}, nil, opt)
	if err != nil {
		return Record{}, err
	}
	return recs[0], nil
}
