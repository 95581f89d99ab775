// Fixture: public entry points returning actions must reach the barrier
// — directly, through another function, or by being the exempt append
// half. Private helpers and entry points returning no actions are out of
// scope.

impl Node {
    pub fn handles_directly(&mut self, now: Time) -> Vec<Action> {
        let mut out = Vec::new();
        self.sync_storage(now, &mut out);
        out
    }

    pub fn handles_through_a_helper(&mut self, now: Time) -> Result<(u64, Vec<Action>), Error> {
        Ok((1, self.handles_directly(now)))
    }

    pub fn propose_append(&mut self, now: Time) -> Vec<Action> {
        Vec::new()
    }

    pub fn forgets_the_barrier(&mut self, now: Time) -> Vec<Action> {
        Vec::new()
    }

    pub(super) fn helper(&mut self) -> Vec<Action> {
        Vec::new()
    }

    pub fn inspects(&self) -> u64 {
        0
    }

    fn sync_storage(&mut self, now: Time, out: &mut Vec<Action>) {}
}
