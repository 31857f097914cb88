//! Seeded `lock-across-spawn` violations: guards live across pool
//! entry points. Caught at the spawn site, not the acquisition.

fn guard_across_scope(state: &Mutex<State>) {
    let g = state.lock();
    par::scope(|s| {
        s.spawn_named("job", || work());
    });
    touch(&g);
}

fn guard_across_par_map(counts: &Mutex<Vec<u64>>, data: Vec<f64>) {
    let tally = counts.lock();
    par_map(data, |_item| step());
    touch(&tally);
}

fn rwlock_read_across_spawn_named(index: &RwLock<Index>, s: &Scope) {
    let view = index.read();
    s.spawn_named("indexed", move || consume());
    touch(&view);
}

fn allowed_with_reason(state: &Mutex<State>) {
    let g = state.lock();
    // envlint: allow(lock-across-spawn) — the spawned job only touches
    // its own chunk; the guard protects an unrelated counter.
    par::scope(|s| s.spawn_named("job", || work()));
    touch(&g);
}
