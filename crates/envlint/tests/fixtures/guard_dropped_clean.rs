//! Negative fixture: every guard here ends — by `drop` or by its
//! enclosing block — before the hazard, so NO concurrency rule fires.

fn explicit_drop_before_spawn(state: &Mutex<State>) {
    let g = state.lock();
    let snapshot = g.snapshot();
    drop(g);
    par::scope(|s| {
        s.spawn_named("job", move || consume(snapshot));
    });
}

fn inner_block_before_spawn(state: &Mutex<State>) {
    let snapshot = {
        let g = state.lock();
        g.snapshot()
    };
    par::scope(|s| {
        s.spawn_named("job", move || consume(snapshot));
    });
}

fn inner_block_guard_before_io(index: &RwLock<Index>, path: &Path) {
    let key = {
        let view = index.read();
        view.key()
    };
    let text = fs::read_to_string(path);
    join(key, text)
}

fn sequential_blocks_are_not_nested(a: &Mutex<A>, b: &Mutex<B>) {
    {
        let ga = a.lock();
        touch(&ga);
    }
    {
        let gb = b.lock();
        touch(&gb);
    }
}

fn temporary_is_not_a_guard(m: &Mutex<Vec<u64>>, data: Vec<f64>) {
    let n = m.lock().len();
    par_map(data, |_item| step(n));
}
